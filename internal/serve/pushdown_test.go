package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestKBFilterPushdown proves the pushed-down /kb filtered path keeps
// the exact HTTP contract of the old scan-then-clone loop: same
// tuples, same exact total, same clamped offset, for every filter and
// window — and stays stable while the table's planner flips hot
// columns from scans to lazy hash indexes across repeated queries.
// The new /meta storage counters account for that filtered traffic.
// The grid quantifies over every storage engine kind: rows in a slice,
// and the paged engine's predicate-column decode over pages in files
// and on the heap.
func TestKBFilterPushdown(t *testing.T) {
	for _, backend := range []string{"memory", "disk", "columnar"} {
		t.Run(backend, func(t *testing.T) {
			testKBFilterPushdown(t, backend)
		})
	}
}

func testKBFilterPushdown(t *testing.T, backend string) {
	corpus := synth.Electronics(40, 8)
	task := corpus.Tasks[0]
	srv, err := serve.New(serve.Config{Task: task, Options: core.Options{Seed: 3, Epochs: 1, Workers: 2, Backend: backend}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var batch []serve.DocumentUpload
	for i := 0; i < 6; i++ {
		batch = append(batch, uploadFor(corpus, i))
	}
	postJSON(t, ts.URL+"/ingest", map[string]any{"documents": batch}, http.StatusOK)

	kb := getJSON(t, ts.URL+"/kb", http.StatusOK)
	all := kb["tuples"].([]any)
	cols := kb["columns"].([]any)
	if len(all) < 3 {
		t.Fatalf("need a few KB rows, got %d", len(all))
	}

	// render flattens one served row to its fmt.Sprint cell values —
	// the equality domain column filters are defined over.
	render := func(row any) []string {
		cells := row.([]any)
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = fmt.Sprint(c)
		}
		return out
	}

	// Client-side reference: filter the full dump, slice the window.
	reference := func(col int, want string, offset, limit int) (rows [][]string, total int) {
		for _, r := range all {
			cells := render(r)
			if cells[col] != want {
				continue
			}
			if total >= offset && (limit <= 0 || len(rows) < limit) {
				rows = append(rows, cells)
			}
			total++
		}
		return rows, total
	}

	type query struct {
		col           int
		want          string
		offset, limit int
	}
	queries := []query{
		{0, render(all[0])[0], 0, 0},
		{0, render(all[0])[0], 1, 2},
		{1, render(all[1])[1], 0, 1},
		{1, "no-such-value", 0, 5},
		{0, render(all[len(all)-1])[0], 1000, 5},
	}
	for qi, q := range queries {
		colName := cols[q.col].(string)
		u := ts.URL + "/kb?" + url.Values{
			colName:  {q.want},
			"offset": {fmt.Sprint(q.offset)},
			"limit":  {fmt.Sprint(q.limit)},
		}.Encode()
		wantRows, wantTotal := reference(q.col, q.want, q.offset, q.limit)
		// Repeat each query: by the third read the planner has flipped
		// the filtered column to an index plan; the response must not
		// move.
		var prev map[string]any
		for rep := 0; rep < 3; rep++ {
			resp := getJSON(t, u, http.StatusOK)
			if prev != nil && !reflect.DeepEqual(resp, prev) {
				t.Fatalf("query %d rep %d: response changed across plans:\n%v\n%v", qi, rep, resp, prev)
			}
			prev = resp
			if got := int(resp["total"].(float64)); got != wantTotal {
				t.Fatalf("query %d: total %d, want %d", qi, got, wantTotal)
			}
			wantLo := q.offset
			if wantLo > wantTotal {
				wantLo = wantTotal
			}
			if got := int(resp["offset"].(float64)); got != wantLo {
				t.Fatalf("query %d: offset %d, want %d", qi, got, wantLo)
			}
			gotRows := resp["tuples"].([]any)
			if len(gotRows) != len(wantRows) {
				t.Fatalf("query %d: %d rows, want %d", qi, len(gotRows), len(wantRows))
			}
			for i, r := range gotRows {
				if !reflect.DeepEqual(render(r), wantRows[i]) {
					t.Fatalf("query %d row %d: %v, want %v", qi, i, render(r), wantRows[i])
				}
			}
		}
	}

	// The filtered traffic shows up in /meta's storage section.
	meta := getJSON(t, ts.URL+"/meta", http.StatusOK)
	storage := meta["storage"].(map[string]any)
	for _, key := range []string{"indexHits", "fullScans"} {
		if _, ok := storage[key]; !ok {
			t.Fatalf("/meta storage missing %q: %v", key, storage)
		}
	}
	planned := storage["indexHits"].(float64) + storage["fullScans"].(float64)
	if planned == 0 {
		t.Fatal("filtered /kb reads recorded no plan choices in /meta")
	}
	if storage["indexHits"].(float64) == 0 {
		t.Fatal("repeated filtered reads never flipped to an index plan")
	}
	if got := storage["backend"]; got != backend {
		t.Fatalf("/meta storage backend = %v, want %q", got, backend)
	}
}
