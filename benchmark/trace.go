package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// A span is one timed call the harness made into a layer (or, for the
// stage spans the program already records about itself, one stage the
// program reported back). Spans of one operation share Op; Parent links a
// span to the one that caused it (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so the untraced and the traced run share one code path and differ only
// in whether spans are kept.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// run times fn and records it as a span; fn receives the span's id to
// parent the calls it makes. The duration is returned traced or not.
func (t *tracer) run(name string, parent, op int, fn func(id int)) time.Duration {
	id := 0
	if t != nil {
		// Reserve the id first so children recorded inside fn sort after
		// their parent.
		id = t.add(name, parent, op, time.Time{}, time.Time{})
	}
	start := time.Now()
	fn(id)
	end := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
		t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return end.Sub(start)
}

// adopt files the program's own stage spans (obs.Span trees from
// Store.TakeIngestSpans / StoreView.StageSpans) under a harness span,
// renamed through names so they carry their layer's module name.
func (t *tracer) adopt(parent, op int, names map[string]string, stages []obs.Span) {
	if t == nil {
		return
	}
	for _, st := range stages {
		name, ok := names[st.Name]
		if !ok {
			name = "core." + st.Name
		}
		end := st.Start.Add(time.Duration(st.DurationMs * 1e6))
		id := t.add(name, parent, op, st.Start, end)
		t.adopt(id, op, names, st.Children)
	}
}

// durations returns every recorded duration of the named span, in order.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums the named span's durations.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// write stores the spans as JSON, creating the directory if needed.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
