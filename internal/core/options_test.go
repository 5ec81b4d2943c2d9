package core

import "testing"

// These tests pin the Options zero-value semantics: 0 is a documented
// "use the default" sentinel for Threshold and L2, and
// ThresholdOverride is the explicit opt-out that makes threshold-0
// reachable.
func TestOptionsDefaultsSentinels(t *testing.T) {
	var o Options
	o.defaults()
	if o.Threshold != 0.5 {
		t.Fatalf("zero Threshold must default to 0.5, got %v", o.Threshold)
	}
	if o.L2 != 1e-4 {
		t.Fatalf("zero L2 must default to 1e-4, got %v", o.L2)
	}
	if o.Epochs != 8 || o.LR != 0.02 || o.MinFeatureCount != 2 {
		t.Fatalf("defaults = %+v", o)
	}

	o = Options{Threshold: 0.25, L2: 0.5}
	o.defaults()
	if o.Threshold != 0.25 || o.L2 != 0.5 {
		t.Fatalf("explicit non-zero values must survive: %+v", o)
	}
}

func TestOptionsOverrides(t *testing.T) {
	o := Options{ThresholdOverride: Float64(0)}
	o.defaults()
	if o.Threshold != 0 {
		t.Fatalf("ThresholdOverride(0) snapped to %v", o.Threshold)
	}

	// The override beats the plain field even when that is non-zero.
	o = Options{Threshold: 0.9, ThresholdOverride: Float64(0.1)}
	o.defaults()
	if o.Threshold != 0.1 {
		t.Fatalf("the override must take precedence: %+v", o)
	}

	if v := Float64(0.75); *v != 0.75 {
		t.Fatalf("Float64 = %v", *v)
	}
}
