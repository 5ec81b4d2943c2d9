//go:build !race

package serve_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestReadAllocs bounds what the tenant's handler allocates to answer
// the read mix's /kb page, filter and whole-table export and a
// /candidates page, on the 16-document ELECTRONICS tenant the serving
// benchmarks read. Only the handler is counted: requests and recorders
// are built, and the recorders' bodies grown, before the count starts.
// The counts repeat exactly, so a failure is a new allocation on the
// read path, not noise. The race detector changes allocation counts,
// hence the build tag.
func TestReadAllocs(t *testing.T) {
	elec := synth.Electronics(8, 16)
	task := elec.Tasks[0]
	srv := newTenant(t, task, elec.GoldTuples[task.Relation], serve.RegistryConfig{BaseOptions: core.Options{Seed: 1, Epochs: 2, Workers: 1}}, "")
	if _, err := srv.Ingest(elec.Docs); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Train(); err != nil {
		t.Fatal(err)
	}
	v := srv.CurrentView()
	first := v.KB().Page(0, 1)
	if len(first) == 0 {
		t.Fatal("the tenant serves an empty KB")
	}
	filter := url.Values{v.Schema().Columns[0].Name: {first[0][0].(string)}}
	h := srv.Handler()
	for _, tc := range []struct {
		route, url string
		max        float64
	}{
		{"/kb page", "/kb?limit=50&offset=3", 17},
		{"/kb filter", "/kb?" + filter.Encode(), 18},
		{"/kb export", "/kb", 14},
		{"/candidates page", "/candidates?limit=10&offset=3", 12},
	} {
		// A filter's first reads build its column's index: warm every
		// route before counting.
		for i := 0; i < 3; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", tc.url, nil))
		}
		const runs = 100
		reqs := make([]*http.Request, runs+1)
		recs := make([]*httptest.ResponseRecorder, runs+1)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("GET", tc.url, nil)
			recs[i] = httptest.NewRecorder()
			recs[i].Body.Grow(256 << 10)
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			h.ServeHTTP(recs[i], reqs[i])
			i++
		})
		for _, rec := range recs {
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.url, rec.Code, rec.Body)
			}
		}
		t.Logf("%s (%s): %.0f allocations a request, %d body bytes", tc.route, tc.url, got, recs[0].Body.Len())
		if got > tc.max {
			t.Errorf("%s (%s): %.0f allocations a request, want at most %.0f", tc.route, tc.url, got, tc.max)
		}
	}
}
