package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
)

// testResolver resolves the synth domains the way cmd/fonduer-serve
// does, so registry tenants and standalone reference servers share
// identical task definitions.
func testResolver(t *testing.T) serve.ResolveTask {
	t.Helper()
	return func(domain, relation string) (core.Task, []core.GoldTuple, error) {
		var c *synth.Corpus
		switch domain {
		case "electronics":
			c = synth.Electronics(0, 2)
		case "ads":
			c = synth.Ads(0, 2)
		case "genomics":
			c = synth.Genomics(0, 2)
		case "paleo":
			c = synth.Paleo(0, 2)
		default:
			return core.Task{}, nil, fmt.Errorf("unknown domain %q", domain)
		}
		for _, task := range c.Tasks {
			if relation == "" || task.Relation == relation {
				return task, nil, nil
			}
		}
		return core.Task{}, nil, fmt.Errorf("no task matches relation %q in domain %q", relation, domain)
	}
}

func newTestRegistry(t *testing.T, root string, opts core.Options) *serve.Registry {
	t.Helper()
	rg, err := serve.NewRegistry(serve.RegistryConfig{
		Resolve:      testResolver(t),
		BaseOptions:  opts,
		SnapshotRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rg.Close)
	return rg
}

// spillFDs lists what this process's open descriptors on kbase spill
// files point at (a disk relation holds one, on its segment, from its
// first sealed page until it is closed); ok is false where there is no
// /proc to read them from.
func spillFDs(t *testing.T) (targets []string, ok bool) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("descriptor checks skipped: %v", err)
		return nil, false
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.Contains(target, "kbase-spill-") {
			targets = append(targets, target)
		}
	}
	return targets, true
}

func deleteReq(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s: status %d, want %d (body %v)", url, resp.StatusCode, wantStatus, out)
	}
	return out
}

// TestRegistryLifecycle drives the tenant lifecycle over real HTTP:
// create (with a per-tenant backend), list, per-tenant ingest
// and reads, per-tenant snapshot into <root>/<tenant>/<relation>,
// deletion, resume-on-create, and the cross-tenant isolation error
// paths (unknown tenant 404, duplicate create 409, undeletable
// default, deletion leaving other tenants' epochs untouched).
func TestRegistryLifecycle(t *testing.T) {
	root := t.TempDir()
	opts := core.Options{Seed: 3, Epochs: 1, Workers: 2}
	rg := newTestRegistry(t, root, opts)
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	// Before any tenant exists, the alias routes have nowhere to go.
	getJSON(t, ts.URL+"/kb", http.StatusNotFound)

	// ---- Create three tenants over HTTP; the first becomes default.
	for _, body := range []map[string]any{
		{"name": "elec", "domain": "electronics"},
		{"name": "ads", "domain": "ads", "backend": "disk"},
		{"name": "paleo", "domain": "paleo"},
	} {
		created := postJSON(t, ts.URL+"/admin/tenants", body, http.StatusCreated)
		if created["name"] != body["name"] {
			t.Fatalf("create reply = %v", created)
		}
	}
	// Creation errors: duplicate name, bad name, unknown domain/backend.
	postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "elec", "domain": "electronics"}, http.StatusConflict)
	postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "no/slashes", "domain": "electronics"}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "budget", "domain": "ads", "maxResidentDocs": 4}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "x", "domain": "nosuchdomain"}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "x", "domain": "ads", "backend": "tape"}, http.StatusBadRequest)

	list := getJSON(t, ts.URL+"/admin/tenants", http.StatusOK)
	if list["default"] != "elec" {
		t.Fatalf("default = %v", list["default"])
	}
	rows := list["tenants"].([]any)
	if len(rows) != 3 {
		t.Fatalf("tenants = %v", rows)
	}
	for _, r := range rows {
		row := r.(map[string]any)
		if row["name"] == "ads" && row["backend"] != "disk" {
			t.Fatalf("ads tenant backend = %v", row["backend"])
		}
	}

	// ---- Ingest into two tenants; epochs advance independently.
	elec := synth.Electronics(21, 4)
	ads := synth.Ads(22, 4)
	var elecBatch, adsBatch []serve.DocumentUpload
	for i := 0; i < 4; i++ {
		elecBatch = append(elecBatch, uploadFor(elec, i))
		adsBatch = append(adsBatch, uploadFor(ads, i))
	}
	ing := postJSON(t, ts.URL+"/t/elec/ingest", map[string]any{"documents": elecBatch}, http.StatusOK)
	if epochOf(t, ing) != 1 {
		t.Fatalf("elec ingest = %v", ing)
	}
	fdBaseline, _ := spillFDs(t)
	postJSON(t, ts.URL+"/t/ads/ingest", map[string]any{"documents": adsBatch}, http.StatusOK)
	if held, ok := spillFDs(t); ok && len(held) != len(fdBaseline) {
		t.Fatalf("the disk tenant's ingest opened a spill file (spill descriptors %v, before %v)", held, fdBaseline)
	}

	// Paleo never ingested: still epoch 0, undisturbed by its
	// neighbors' writes.
	if e := epochOf(t, getJSON(t, ts.URL+"/t/paleo/healthz", http.StatusOK)); e != 0 {
		t.Fatalf("paleo epoch = %d", e)
	}
	// The un-prefixed alias serves the default tenant (elec).
	aliasKB := getJSON(t, ts.URL+"/kb", http.StatusOK)
	tenantKB := getJSON(t, ts.URL+"/t/elec/kb", http.StatusOK)
	aliasCanon, err := canonicalKB(aliasKB["columns"], aliasKB["tuples"])
	if err != nil {
		t.Fatal(err)
	}
	tenantCanon, err := canonicalKB(tenantKB["columns"], tenantKB["tuples"])
	if err != nil {
		t.Fatal(err)
	}
	if aliasCanon != tenantCanon {
		t.Fatalf("alias and /t/elec serve different KBs:\nalias:  %s\ntenant: %s", aliasCanon, tenantCanon)
	}
	// Unknown tenants are 404 on every route shape.
	getJSON(t, ts.URL+"/t/nosuchtenant/kb", http.StatusNotFound)
	getJSON(t, ts.URL+"/t/nosuchtenant", http.StatusNotFound)
	postJSON(t, ts.URL+"/t/nosuchtenant/ingest", map[string]any{"documents": elecBatch}, http.StatusNotFound)

	// ---- Fleet aggregation: /healthz covers every tenant.
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["ok"] != true || health["default"] != "elec" {
		t.Fatalf("registry healthz = %v", health)
	}
	if n := len(health["tenants"].([]any)); n != 3 {
		t.Fatalf("healthz tenants = %v", health["tenants"])
	}

	// ---- Per-tenant snapshot lands in <root>/<tenant>/<relation>.
	snap := postJSON(t, ts.URL+"/t/ads/admin/snapshot", nil, http.StatusOK)
	adsRelation := ""
	for _, r := range rows {
		if row := r.(map[string]any); row["name"] == "ads" {
			adsRelation = row["relation"].(string)
		}
	}
	wantDir := filepath.Join(root, "ads", adsRelation)
	if snap["dir"] != wantDir {
		t.Fatalf("ads snapshot dir = %v, want %s", snap["dir"], wantDir)
	}
	if entries, err := os.ReadDir(wantDir); err != nil || len(entries) == 0 {
		t.Fatalf("snapshot directory %s empty or unreadable: %v", wantDir, err)
	}

	// ---- Deletion: the default tenant is protected; others close
	// cleanly and vanish from routing without disturbing neighbors.
	deleteReq(t, ts.URL+"/admin/tenants/elec", http.StatusBadRequest)
	deleteReq(t, ts.URL+"/admin/tenants/nosuchtenant", http.StatusNotFound)
	elecEpochBefore := epochOf(t, getJSON(t, ts.URL+"/t/elec/healthz", http.StatusOK))
	elecKBBefore := getJSON(t, ts.URL+"/t/elec/kb", http.StatusOK)
	deleteReq(t, ts.URL+"/admin/tenants/ads", http.StatusOK)
	getJSON(t, ts.URL+"/t/ads/kb", http.StatusNotFound)
	// The deleted disk tenant's segment descriptors went with it.
	if left, ok := spillFDs(t); ok && len(left) != len(fdBaseline) {
		t.Fatalf("deleting ads left %d spill descriptors open, want the %d from before its ingest: %v", len(left), len(fdBaseline), left)
	}
	if e := epochOf(t, getJSON(t, ts.URL+"/t/elec/healthz", http.StatusOK)); e != elecEpochBefore {
		t.Fatalf("deleting ads moved elec's epoch %d -> %d", elecEpochBefore, e)
	}
	elecKBAfter := getJSON(t, ts.URL+"/t/elec/kb", http.StatusOK)
	b1, _ := canonicalKB(elecKBBefore["columns"], elecKBBefore["tuples"])
	b2, _ := canonicalKB(elecKBAfter["columns"], elecKBAfter["tuples"])
	if b1 != b2 {
		t.Fatal("deleting ads changed elec's served KB")
	}

	// ---- Resume: re-creating the deleted tenant picks its snapshot
	// back up from <root>/<tenant>/<relation>.
	recreated := postJSON(t, ts.URL+"/admin/tenants", map[string]any{"name": "ads", "domain": "ads"}, http.StatusCreated)
	if recreated["resumed"] != true {
		t.Fatalf("recreated ads not resumed: %v", recreated)
	}
	if docs := recreated["docs"].(float64); docs != 4 {
		t.Fatalf("resumed ads has %v docs, want 4", docs)
	}
	resumedKB := getJSON(t, ts.URL+"/t/ads/kb", http.StatusOK)
	if int(resumedKB["total"].(float64)) != len(resumedKB["tuples"].([]any)) {
		t.Fatalf("resumed ads kb inconsistent: %v", resumedKB)
	}
}

// TestRegistryTenantEpochsBitIdenticalToStandalone is the registry's
// flagship -race test: three tenants (distinct domains, the shapes a
// production fleet mixes) are ingested and read concurrently through
// the registry, while standalone single-tenant Servers replay the
// identical batches. Every observed per-tenant /kb response must be
// bit-identical to the standalone server's response at the same
// epoch — multi-tenancy must be invisible to any single tenant.
func TestRegistryTenantEpochsBitIdenticalToStandalone(t *testing.T) {
	const nDocs, batchSize, nReaders = 6, 2, 2
	opts := core.Options{Seed: 9, Epochs: 1, Workers: 2}
	type tenantCase struct {
		name   string
		domain string
		corpus *synth.Corpus
	}
	cases := []tenantCase{
		{"elec", "electronics", synth.Electronics(43, nDocs)},
		{"ads", "ads", synth.Ads(44, nDocs)},
		{"geno", "genomics", synth.Genomics(45, nDocs)},
	}
	numEpochs := nDocs/batchSize + 1

	// ---- Standalone references: one single-tenant Server per case,
	// same task, same options, same batches. Record each epoch's
	// canonical /kb body.
	expect := map[string][]string{}
	resolver := testResolver(t)
	for _, tc := range cases {
		task, _, err := resolver(tc.domain, "")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := serve.New(serve.Config{Task: task, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		refTS := httptest.NewServer(ref.Handler())
		perEpoch := make([]string, numEpochs)
		record := func(epoch int) {
			kb := getJSON(t, refTS.URL+"/kb", http.StatusOK)
			if got := epochOf(t, kb); got != uint64(epoch) {
				t.Fatalf("standalone %s epoch = %d, want %d", tc.name, got, epoch)
			}
			canon, err := canonicalKB(kb["columns"], kb["tuples"])
			if err != nil {
				t.Fatal(err)
			}
			perEpoch[epoch] = canon
		}
		record(0)
		for b := 0; b*batchSize < nDocs; b++ {
			var batch []serve.DocumentUpload
			for i := b * batchSize; i < (b+1)*batchSize; i++ {
				batch = append(batch, uploadFor(tc.corpus, i))
			}
			postJSON(t, refTS.URL+"/ingest", map[string]any{"documents": batch}, http.StatusOK)
			record(b + 1)
		}
		expect[tc.name] = perEpoch
		refTS.Close()
		ref.Close()
	}

	// ---- The fleet under test: all three tenants live in one
	// registry, ingested concurrently while readers hammer each
	// tenant's routes.
	rg := newTestRegistry(t, "", opts)
	for _, tc := range cases {
		if _, err := rg.Create(serve.TenantConfig{Name: tc.name, Domain: tc.domain}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rg.Handler())
	defer ts.Close()

	type obs struct {
		tenant string
		epoch  uint64
		kb     string
	}
	var (
		mu   sync.Mutex
		seen []obs
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, tc := range cases {
		for r := 0; r < nReaders; r++ {
			readers.Add(1)
			go func(name string) {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := fetchJSON(ts.URL + "/t/" + name + "/kb")
					if err != nil {
						t.Error(err)
						return
					}
					e, err := num(resp, "epoch")
					if err != nil {
						t.Error(err)
						return
					}
					canon, err := canonicalKB(resp["columns"], resp["tuples"])
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					seen = append(seen, obs{tenant: name, epoch: uint64(e), kb: canon})
					mu.Unlock()
				}
			}(tc.name)
		}
	}

	// Concurrent writers: each tenant's batches ingest in order within
	// the tenant, interleaved arbitrarily across tenants.
	var writers sync.WaitGroup
	for _, tc := range cases {
		writers.Add(1)
		go func(tc tenantCase) {
			defer writers.Done()
			for b := 0; b*batchSize < nDocs; b++ {
				var batch []serve.DocumentUpload
				for i := b * batchSize; i < (b+1)*batchSize; i++ {
					batch = append(batch, uploadFor(tc.corpus, i))
				}
				buf, err := json.Marshal(map[string]any{"documents": batch})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/t/"+tc.name+"/ingest", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tenant %s batch %d: ingest status %d", tc.name, b, resp.StatusCode)
					return
				}
			}
		}(tc)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// ---- Validation: every observation matches the standalone server
	// at that epoch, bit for bit.
	perTenant := map[string]int{}
	for _, o := range seen {
		want := expect[o.tenant]
		if o.epoch >= uint64(len(want)) {
			t.Fatalf("tenant %s: observed unpublished epoch %d", o.tenant, o.epoch)
		}
		if o.kb != want[o.epoch] {
			t.Fatalf("tenant %s epoch %d: registry-served KB differs from standalone server\n got: %s\nwant: %s",
				o.tenant, o.epoch, o.kb, want[o.epoch])
		}
		perTenant[o.tenant]++
	}
	for _, tc := range cases {
		if perTenant[tc.name] == 0 {
			t.Fatalf("no observations for tenant %s; test is vacuous", tc.name)
		}
		// And the final epoch is exactly the standalone final epoch.
		kb := getJSON(t, ts.URL+"/t/"+tc.name+"/kb", http.StatusOK)
		if got := epochOf(t, kb); got != uint64(numEpochs-1) {
			t.Fatalf("tenant %s final epoch = %d, want %d", tc.name, got, numEpochs-1)
		}
		canon, err := canonicalKB(kb["columns"], kb["tuples"])
		if err != nil {
			t.Fatal(err)
		}
		if canon != expect[tc.name][numEpochs-1] {
			t.Fatalf("tenant %s final KB differs from standalone", tc.name)
		}
	}
	t.Logf("validated %d observations across %d tenants", len(seen), len(cases))
}

// TestRegistryCreateRefusesMalformedSnapshot: a tenant whose snapshot
// declares a retyped column is refused with an error, not a panic, and
// the refusal releases the tenant's name — once the file is repaired, a
// second Create of the same name resumes it.
func TestRegistryCreateRefusesMalformedSnapshot(t *testing.T) {
	root := t.TempDir()
	opts := core.Options{Seed: 3, Epochs: 1}
	rg := newTestRegistry(t, root, opts)
	task, _, err := testResolver(t)("electronics", "")
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStore(task, opts)
	defer st.Close()
	if err := st.AddDocuments(synth.Electronics(21, 3).Docs...); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(root, "elec", task.Relation)
	if err := st.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	docs := filepath.Join(snap, "documents.tsv")
	good, err := os.ReadFile(docs)
	if err != nil {
		t.Fatal(err)
	}
	retyped := strings.Replace(string(good), "\tpos:integer", "\tpos:varchar", 1)
	if retyped == string(good) {
		t.Fatalf("documents.tsv has no pos:integer column:\n%.200s", good)
	}
	if err := os.WriteFile(docs, []byte(retyped), 0o644); err != nil {
		t.Fatal(err)
	}
	tc := serve.TenantConfig{Name: "elec", Domain: "electronics"}
	if _, err := rg.Create(tc); err == nil || !strings.Contains(err.Error(), "documents relation") {
		t.Fatalf("Create on a retyped snapshot = %v, want an error naming the documents relation", err)
	}
	if err := os.WriteFile(docs, good, 0o644); err != nil {
		t.Fatal(err)
	}
	status, err := rg.Create(tc)
	if err != nil {
		t.Fatalf("Create after the repair: %v", err)
	}
	if !status.Resumed || status.Docs != 3 {
		t.Fatalf("Create after the repair = %+v, want the 3-document session resumed", status)
	}
}
