package core

import "testing"

// These tests pin the Options defaults: a zero Epochs and
// MinFeatureCount mean 8 and 2, and a nil ThresholdOverride means 0.5,
// while any override, 0 included, is taken exactly.
func TestOptionsDefaultsSentinels(t *testing.T) {
	var o Options
	o.defaults()
	if o.threshold() != 0.5 {
		t.Fatalf("nil ThresholdOverride must mean 0.5, got %v", o.threshold())
	}
	if o.Epochs != 8 || o.MinFeatureCount != 2 || o.Backend != "memory" {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestOptionsOverrides(t *testing.T) {
	o := Options{ThresholdOverride: Float64(0)}
	o.defaults()
	if o.threshold() != 0 {
		t.Fatalf("ThresholdOverride(0) snapped to %v", o.threshold())
	}

	if v := Float64(0.75); *v != 0.75 {
		t.Fatalf("Float64 = %v", *v)
	}
}
