package core_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/parser"
	"repro/internal/synth"
)

func docNames(docs []*datamodel.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	return out
}

// batchings enumerates ways to split a doc list into ingestion
// batches: all at once, two halves, one document at a time, and
// reversed halves (ingestion order must not matter).
func batchings(docs []*datamodel.Document) [][][]*datamodel.Document {
	half := len(docs) / 2
	oneAtATime := make([][]*datamodel.Document, 0, len(docs))
	for _, d := range docs {
		oneAtATime = append(oneAtATime, []*datamodel.Document{d})
	}
	return [][][]*datamodel.Document{
		{docs},
		{docs[:half], docs[half:]},
		oneAtATime,
		{docs[half:], docs[:half]},
	}
}

// TestStoreIncrementalEquivalence is the tentpole invariant: ingesting
// the corpus through Store.AddDocuments under any batching (including
// one document at a time, and out of order), at workers {1, 2, 8},
// then running a split from the store yields a Result bit-identical to
// a single from-scratch core.Run over the union corpus.
func TestStoreIncrementalEquivalence(t *testing.T) {
	corpus := synth.Electronics(61, 12)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]

	for _, workers := range []int{1, 2, 8} {
		opts := core.Options{Seed: 7, Epochs: 2, Workers: workers}
		want := normalizeResult(core.Run(task, train, test, gold, opts))
		if want.TrainCandidates == 0 || want.NumFeatures == 0 {
			t.Fatalf("degenerate baseline: %+v", want)
		}
		for bi, batches := range batchings(corpus.Docs) {
			st := core.NewStore(task, opts)
			for _, batch := range batches {
				if err := st.AddDocuments(batch...); err != nil {
					t.Fatalf("workers=%d batching=%d: %v", workers, bi, err)
				}
			}
			got, err := st.RunSplit(docNames(train), docNames(test), gold)
			if err != nil {
				t.Fatalf("workers=%d batching=%d: %v", workers, bi, err)
			}
			if !reflect.DeepEqual(normalizeResult(got), want) {
				t.Errorf("workers=%d batching=%d: store Result differs from scratch Run\n got: %+v\nwant: %+v",
					workers, bi, normalizeResult(got), want)
			}
		}
	}
}

// TestStoreIndexEvolution checks the incremental index maintenance
// directly: however the corpus is batched, the session feature index
// converges to the same name set, and re-ingesting an already-ingested
// document is a no-op.
func TestStoreIndexEvolution(t *testing.T) {
	corpus := synth.Electronics(62, 8)
	task := corpus.Tasks[0]
	opts := core.Options{Seed: 1, Epochs: 1}

	scratch := core.NewStore(task, opts)
	if err := scratch.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	incr := core.NewStore(task, opts)
	for _, d := range corpus.Docs {
		if err := incr.AddDocuments(d); err != nil {
			t.Fatal(err)
		}
	}
	want, got := slices.Clone(scratch.FeatureIndex().NamesView()), slices.Clone(incr.FeatureIndex().NamesView())
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("index diverged under batching: %d names batched, %d at once", len(got), len(want))
	}
	if scratch.FeatureIndex().Len() == 0 {
		t.Fatal("no features admitted")
	}

	// Idempotent re-ingestion of the same pointer.
	before := len(incr.Candidates())
	if err := incr.AddDocuments(corpus.Docs[0]); err != nil {
		t.Fatal(err)
	}
	if len(incr.Candidates()) != before {
		t.Fatal("re-ingesting a document must be a no-op")
	}
	// A different document under an ingested name is rejected.
	clone := synth.Electronics(99, 1).Docs[0]
	clone.Name = corpus.Docs[0].Name
	if err := incr.AddDocuments(clone); err == nil {
		t.Fatal("conflicting re-ingestion must error")
	}
}

// TestStoreSnapshotResume checks the session round trip: snapshot to
// disk, resume with OpenStore, and require (a) relation-level equality
// of the restored kbase DB and (b) a bit-identical RunSplit Result —
// without any re-parsing or re-extraction (the restored store never
// sees the original documents).
func TestStoreSnapshotResume(t *testing.T) {
	corpus := synth.Electronics(63, 10)
	task := corpus.Tasks[0]
	train, test := corpus.Split()
	gold := corpus.GoldTuples[task.Relation]
	opts := core.Options{Seed: 5, Epochs: 2}

	st := core.NewStore(task, opts)
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "session")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if !core.IsStoreDir(dir) {
		t.Fatal("IsStoreDir must recognize the snapshot")
	}

	resumed, err := core.OpenStore(dir, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !kbase.EqualDB(st.DB(), resumed.DB()) {
		t.Fatal("restored relations differ from the live store")
	}
	if len(resumed.Candidates()) != len(st.Candidates()) {
		t.Fatalf("candidates: %d vs %d", len(resumed.Candidates()), len(st.Candidates()))
	}

	want, err := st.RunSplit(docNames(train), docNames(test), gold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunSplit(docNames(train), docNames(test), gold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
		t.Fatalf("resumed Result differs\n got: %+v\nwant: %+v", normalizeResult(got), normalizeResult(want))
	}

	// The resumed store keeps working incrementally: snapshot again
	// and compare relations (order-insensitive set equality).
	dir2 := filepath.Join(t.TempDir(), "session2")
	if err := resumed.Snapshot(dir2); err != nil {
		t.Fatal(err)
	}
	again, err := core.OpenStore(dir2, task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !kbase.EqualDB(st.DB(), again.DB()) {
		t.Fatal("second-generation snapshot drifted")
	}
}

// spanningDoc is a datasheet-shaped document whose ratings table has
// row- and column-spanning cells, which the synthetic corpora never
// produce: a spanning cell is linked into every row it covers, and the
// snapshot and resume paths must still see each sentence once.
func spanningDoc() *datamodel.Document {
	return parser.ParseHTML("spanning", `<html><body>
<h1 class="part-header" id="hdr">2N7825C</h1>
<p>NPN Silicon Switching Transistors.</p>
<table class="ratings"><caption>Maximum Ratings</caption>
<tr><th>Parameter</th><th>Symbol</th><th>Value</th><th>Unit</th><th>Condition</th></tr>
<tr><td>Type</td><td>2N7825C</td><td colspan=3></td></tr>
<tr><td>Collector-emitter voltage</td><td>VCEO</td><td>46</td><td rowspan=2>V</td><td></td></tr>
<tr><td>Collector-base voltage</td><td>VCBO</td><td>62</td><td>pulse 275 us</td></tr>
<tr><td rowspan=2>Collector current</td><td>IC</td><td>620</td><td>mA</td><td></td></tr>
<tr><td>ICM</td><td>800</td><td>mA</td><td>pulse 505 us</td></tr>
</table>
</body></html>`)
}

// withSpanningDoc returns the corpus with spanningDoc appended to its
// documents.
func withSpanningDoc(c *synth.Corpus) *synth.Corpus {
	out := *c
	out.Docs = append(append([]*datamodel.Document{}, c.Docs...), spanningDoc())
	return &out
}

// TestStoreResumeLFFidelity guards the LF-iteration-after-resume
// workflow: applying a labeling function to a *resumed* store must
// produce exactly the votes a live session produces, including for
// LFs that read structural, tabular and visual attributes (HTML tags,
// row/column ngrams, table headers, fonts) — the attributes a naive
// words-only snapshot would lose, turning those LFs into silent
// all-abstain columns.
func TestStoreResumeLFFidelity(t *testing.T) {
	for _, domain := range []struct {
		name   string
		corpus *synth.Corpus
	}{
		{"electronics", synth.Electronics(66, 6)}, // HTML + vdoc: tabular, visual, structural LFs
		{"genomics", synth.Genomics(67, 6)},       // native XML: no visual modality
		{"electronics+spans", withSpanningDoc(synth.Electronics(68, 4))},
	} {
		task := domain.corpus.Tasks[0]
		opts := core.Options{Epochs: 1, LFs: []labeling.LF{}}
		live := core.NewStore(task, opts)
		if err := live.AddDocuments(domain.corpus.Docs...); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		dir := filepath.Join(t.TempDir(), domain.name)
		if err := live.Snapshot(dir); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		resumed, err := core.OpenStore(dir, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		for _, lf := range task.LFs {
			if _, err := live.AddLF(lf); err != nil {
				t.Fatalf("%s: %v", domain.name, err)
			}
			if _, err := resumed.AddLF(lf); err != nil {
				t.Fatalf("%s: %v", domain.name, err)
			}
		}
		lm, rm := live.LabelMatrix(), resumed.LabelMatrix()
		if lm.NumCands != rm.NumCands || lm.NumLFs != rm.NumLFs {
			t.Fatalf("%s: matrix dims differ: %dx%d vs %dx%d", domain.name, lm.NumCands, lm.NumLFs, rm.NumCands, rm.NumLFs)
		}
		diverged := 0
		for i := 0; i < lm.NumCands; i++ {
			if !reflect.DeepEqual(lm.RowLabels(i), rm.RowLabels(i)) {
				diverged++
			}
		}
		if diverged != 0 {
			t.Fatalf("%s: %d/%d candidates get different LF votes after resume", domain.name, diverged, lm.NumCands)
		}
		if m := labeling.ComputeMetrics(rm); m.Coverage == 0 {
			t.Fatalf("%s: resumed LF application is all-abstain (coverage 0)", domain.name)
		}
	}
}

// TestStoreSnapshotAllDomains runs the snapshot -> restore -> RunSplit
// equivalence over every corpus domain (HTML+vdoc, heterogeneous
// HTML, long articles, native XML), so document rebuilding is
// exercised against each generator's structure.
func TestStoreSnapshotAllDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-domain snapshot sweep; run without -short")
	}
	for _, domain := range []struct {
		name   string
		corpus *synth.Corpus
	}{
		{"electronics", synth.Electronics(71, 6)},
		{"ads", synth.Ads(72, 8)},
		{"paleo", synth.Paleo(73, 4)},
		{"genomics", synth.Genomics(74, 6)},
		{"electronics+spans", withSpanningDoc(synth.Electronics(75, 4))},
	} {
		task := domain.corpus.Tasks[0]
		train, test := domain.corpus.Split()
		gold := domain.corpus.GoldTuples[task.Relation]
		opts := core.Options{Seed: 2, Epochs: 1}
		st := core.NewStore(task, opts)
		if err := st.AddDocuments(domain.corpus.Docs...); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		dir := filepath.Join(t.TempDir(), domain.name)
		if err := st.Snapshot(dir); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		resumed, err := core.OpenStore(dir, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		want, err := st.RunSplit(docNames(train), docNames(test), gold)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		got, err := resumed.RunSplit(docNames(train), docNames(test), gold)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
			t.Errorf("%s: resumed Result differs\n got: %+v\nwant: %+v",
				domain.name, normalizeResult(got), normalizeResult(want))
		}
		// Re-snapshotting the resumed store reproduces the relations.
		dir2 := filepath.Join(t.TempDir(), domain.name+"2")
		if err := resumed.Snapshot(dir2); err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		again, err := core.OpenStore(dir2, task, opts)
		if err != nil {
			t.Fatalf("%s: %v", domain.name, err)
		}
		if !kbase.EqualDB(st.DB(), again.DB()) {
			t.Errorf("%s: second-generation snapshot drifted", domain.name)
		}
	}
}

// TestStoreOpenValidation: resuming under a different configuration
// (here: a different relation, and an ablated modality set) must fail
// loudly instead of silently mixing incompatible feature spaces.
func TestStoreOpenValidation(t *testing.T) {
	corpus := synth.Electronics(64, 4)
	task := corpus.Tasks[0]
	st := core.NewStore(task, core.Options{Epochs: 1})
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "s")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenStore(dir, corpus.Tasks[1], core.Options{Epochs: 1}); err == nil {
		t.Fatal("wrong relation must be rejected")
	}
	if _, err := core.OpenStore(dir, task, core.Options{
		Epochs:             1,
		DisabledModalities: []features.Modality{features.Visual},
	}); err == nil {
		t.Fatal("mismatched modality configuration must be rejected")
	}
	// Persisted votes are bound to the exact LF sequence: a reordered
	// LF list must be rejected, not silently matched to stale columns.
	reversed := make([]labeling.LF, len(task.LFs))
	for i, lf := range task.LFs {
		reversed[len(task.LFs)-1-i] = lf
	}
	if _, err := core.OpenStore(dir, task, core.Options{Epochs: 1, LFs: reversed}); err == nil {
		t.Fatal("reordered LFs must be rejected")
	}
	// Runtime knobs may differ freely.
	if _, err := core.OpenStore(dir, task, core.Options{Epochs: 9, Seed: 42, ThresholdOverride: core.Float64(0.9), Workers: 2}); err != nil {
		t.Fatalf("runtime knobs must not block resume: %v", err)
	}
}

// TestOpenStoreRefusesBadVotes: the store writes one vote of -1 or +1 per
// (candidate, LF) it labels, and OpenStore holds a snapshot's labels
// relation to that. A vote of 2 would be kept as a vote no LF can cast,
// 256 would wrap to an abstain, and a second, conflicting row for one
// (candidate, LF) would overwrite the first: each is refused with an
// error naming the candidate and the LF.
func TestOpenStoreRefusesBadVotes(t *testing.T) {
	corpus := synth.Electronics(64, 4)
	task := corpus.Tasks[0]
	opts := core.Options{Epochs: 1}
	st := core.NewStore(task, opts)
	defer st.Close()
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	files := snapshotBytes(t, dir)
	lines := strings.SplitAfter(string(files["labels.tsv"]), "\n") // header, rows..., ""
	if len(lines) < 3 {
		t.Fatalf("labels.tsv holds no votes:\n%s", files["labels.tsv"])
	}
	row := strings.Split(strings.TrimSuffix(lines[1], "\n"), "\t") // cand, lf, vote
	flipped := map[string]string{"1": "-1", "-1": "1"}[row[2]]
	if flipped == "" {
		t.Fatalf("labels.tsv's first vote is %q, want -1 or 1", row[2])
	}
	withVote := func(vote string) string { return row[0] + "\t" + row[1] + "\t" + vote + "\n" }
	rest := strings.Join(lines[2:], "")
	for name, labels := range map[string]string{
		"vote 2":          lines[0] + withVote("2") + rest,
		"vote 256":        lines[0] + withVote("256") + rest,
		"explicit 0":      lines[0] + withVote("0") + rest,
		"conflicting two": lines[0] + lines[1] + withVote(flipped) + rest,
	} {
		edited := filepath.Join(t.TempDir(), "edited")
		if err := os.Mkdir(edited, 0o755); err != nil {
			t.Fatal(err)
		}
		for file, body := range files {
			if file == "labels.tsv" {
				body = []byte(labels)
			}
			if err := os.WriteFile(filepath.Join(edited, file), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resumed, err := core.OpenStore(edited, task, opts)
		if err == nil {
			resumed.Close()
			t.Errorf("%s: OpenStore resumed the edited snapshot", name)
			continue
		}
		if want := "candidate " + row[0] + " / lf " + row[1]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: OpenStore = %v, want an error naming %q", name, err, want)
		}
	}
}

// TestOpenStoreRefusesMalformedSnapshots: OpenStore reads a snapshot in
// the order and the types Snapshot writes it. A retyped or dropped
// column, rows out of that order (shuffled, a repeated document, a gap
// in candidate ids or in a candidate's seq) and a table cell's span that
// is negative or inverted are each refused with an error naming the
// relation — never a panic, never a resume — and on the disk kind the
// refusal leaves no spill directory and no open segment behind.
func TestOpenStoreRefusesMalformedSnapshots(t *testing.T) {
	corpus := synth.Electronics(63, 10)
	task := corpus.Tasks[0]
	st := core.NewStore(task, core.Options{Epochs: 1})
	defer st.Close()
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	files := snapshotOf(t, st)

	// Each edit gets a file's lines, its header first, and returns them.
	shuffle := func(lines []string) []string {
		rows := lines[1:]
		rand.New(rand.NewSource(1)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return lines
	}
	retype := func(from, to string) func([]string) []string {
		return func(lines []string) []string {
			if !strings.Contains(lines[0], "\t"+from) {
				t.Fatalf("header %q has no column %s", lines[0], from)
			}
			lines[0] = strings.Replace(lines[0], "\t"+from, "\t"+to, 1)
			return lines
		}
	}
	dropRows := func(prefix string) func([]string) []string {
		return func(lines []string) []string {
			return slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) })
		}
	}
	// tableCell rewrites one field of the first sentence in a table cell.
	tableCell := func(col int, val func(f []string) string) func([]string) []string {
		return func(lines []string) []string {
			for i, l := range lines[1:] {
				if f := strings.Split(l, "\t"); f[17] != "-1" { // tbl
					f[col] = val(f)
					lines[i+1] = strings.Join(f, "\t")
					return lines
				}
			}
			t.Fatal("no sentence in a table cell")
			return nil
		}
	}
	cases := []struct {
		name, file, relation string
		edit                 func(lines []string) []string
	}{
		{"documents pos retyped", "documents.tsv", "documents", retype("pos:integer", "pos:varchar")},
		{"features cand retyped", "features.tsv", "features", retype("cand:integer", "cand:varchar")},
		{"candidates end dropped", "candidates.tsv", "candidates", func(lines []string) []string {
			for i, l := range lines {
				lines[i] = l[:strings.LastIndexByte(l, '\t')]
			}
			return lines
		}},
		{"shuffled features", "features.tsv", "features", shuffle},
		{"shuffled candidates", "candidates.tsv", "candidates", shuffle},
		{"shuffled sentences", "sentences.tsv", "sentences", shuffle},
		{"duplicate document", "documents.tsv", "documents", func(lines []string) []string {
			// An exact copy is a duplicate tuple the load drops, so the copy
			// takes the next position.
			f := strings.Split(lines[1], "\t")
			f[0] = strconv.Itoa(len(lines) - 1)
			return append(lines, strings.Join(f, "\t"))
		}},
		{"candidate id gap", "candidates.tsv", "candidates", dropRows("1\t")},
		{"seq gap", "features.tsv", "features", dropRows("0\t1\t")},
		{"negative row_start", "sentences.tsv", "sentences", tableCell(18, func([]string) string { return "-1" })},
		{"inverted column span", "sentences.tsv", "sentences", tableCell(20, func(f []string) string {
			end, _ := strconv.Atoi(f[21])
			return strconv.Itoa(end + 1)
		})},
	}
	for _, kind := range []string{"memory", "disk"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				spill := t.TempDir()
				t.Setenv("TMPDIR", spill) // where the disk kind makes its spill directory
				dir := filepath.Join(t.TempDir(), "snap")
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for file, body := range files {
					if file == tc.file {
						lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
						body = []byte(strings.Join(tc.edit(lines), "\n") + "\n")
					}
					if err := os.WriteFile(filepath.Join(dir, file), body, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("OpenStore panicked: %v", p)
						}
					}()
					var resumed *core.Store
					if resumed, err = core.OpenStore(dir, task, core.Options{Epochs: 1, Backend: kind}); err == nil {
						resumed.Close()
					}
				}()
				if err == nil {
					t.Fatal("OpenStore resumed the malformed snapshot")
				}
				if !strings.Contains(err.Error(), tc.relation+" relation") {
					t.Errorf("OpenStore = %v, want an error naming the %s relation", err, tc.relation)
				}
				if left, _ := os.ReadDir(spill); len(left) != 0 {
					t.Errorf("the refusal left %s behind in the spill root", left[0].Name())
				}
				if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
					for _, fd := range fds {
						if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, spill) {
							t.Errorf("the refusal left descriptor %s open on %s", fd.Name(), target)
						}
					}
				}
			})
		}
	}
}

// TestOpenStoreRefusesDuplicateKeys: a snapshot in which any of the six
// relations repeats a row exactly — a duplicate a set would silently
// drop — is refused with an error naming the relation, and on the disk
// kind leaves no spill directory or open segment behind.
func TestOpenStoreRefusesDuplicateKeys(t *testing.T) {
	corpus := synth.Electronics(63, 6)
	task := corpus.Tasks[0]
	st := core.NewStore(task, core.Options{Epochs: 1})
	defer st.Close()
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	files := snapshotOf(t, st)
	for _, kind := range []string{"memory", "disk"} {
		for _, relation := range []string{"documents", "sentences", "candidates", "features", "labels", "meta"} {
			t.Run(kind+"/"+relation, func(t *testing.T) {
				spill := t.TempDir()
				t.Setenv("TMPDIR", spill) // where the disk kind makes its spill directory
				lines := strings.SplitAfter(string(files[relation+".tsv"]), "\n")
				copied := strings.Join(lines[:2], "") + lines[1] + strings.Join(lines[2:], "") // row 0 twice
				dir := writeSnapshot(t, files, relation+".tsv", copied)
				resumed, err := core.OpenStore(dir, task, core.Options{Epochs: 1, Backend: kind})
				if err == nil {
					resumed.Close()
					t.Fatal("OpenStore resumed a snapshot with a repeated row")
				}
				if !strings.Contains(err.Error(), relation+" relation") {
					t.Errorf("OpenStore = %v, want an error naming the %s relation", err, relation)
				}
				if left, _ := os.ReadDir(spill); len(left) != 0 {
					t.Errorf("the refusal left %s behind in the spill root", left[0].Name())
				}
				fds, _ := os.ReadDir("/proc/self/fd")
				for _, fd := range fds {
					if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, spill) {
						t.Errorf("the refusal left descriptor %s open on %s", fd.Name(), target)
					}
				}
			})
		}
	}
}

// writeSnapshot writes the snapshot files to a fresh directory, the file
// named edited (if any) with body instead.
func writeSnapshot(t *testing.T, files map[string][]byte, edited, body string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "snap")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for file, b := range files {
		if file == edited {
			b = []byte(body)
		}
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// storeState is what a refused or failed call must leave alone.
type storeState struct {
	epoch  uint64
	docs   []string
	cands  int
	tables map[string]int
}

func stateOf(st *core.Store) storeState {
	s := storeState{epoch: st.Epoch(), docs: st.DocNames(), cands: st.NumCandidates(), tables: map[string]int{}}
	for _, name := range st.DB().Names() {
		s.tables[name] = st.DB().Table(name).Len()
	}
	return s
}

func snapshotOf(t *testing.T, st *core.Store) map[string][]byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "snap")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, dir)
}

// TestStoreRejectsSeparatorBytes: a document whose text carries the
// snapshot encoding's reserved control bytes is refused with
// ErrInvalidDocument, and the refusal is whole — on every backend the
// batch it arrived in (a good document first, so a store that merged
// before it validated would keep that one) leaves the epoch, the
// document list, the candidate count, all six relations and the
// snapshot bytes as they were, and the session goes on to resume.
func TestStoreRejectsSeparatorBytes(t *testing.T) {
	b := datamodel.NewBuilder("evil", "html")
	par := b.AddParagraph(b.AddText())
	b.AddSentence(par, []string{"fine", "bad\x1fword"})
	evil := b.Finish()

	for _, backend := range kbase.BackendKinds() {
		t.Run(backend, func(t *testing.T) {
			corpus := synth.Electronics(68, 4)
			task := corpus.Tasks[0]
			opts := core.Options{Epochs: 1, Backend: backend}
			st := core.NewStore(task, opts)
			defer st.Close()
			if err := st.AddDocuments(corpus.Docs[:2]...); err != nil {
				t.Fatal(err)
			}
			before, snapBefore := stateOf(st), snapshotOf(t, st)
			if len(before.tables) != 6 {
				t.Fatalf("store has %d relations, want 6", len(before.tables))
			}

			err := st.AddDocuments(corpus.Docs[2], evil)
			if !errors.Is(err, core.ErrInvalidDocument) || !strings.Contains(err.Error(), `"evil"`) {
				t.Fatalf("AddDocuments = %v, want ErrInvalidDocument naming the document", err)
			}
			if after := stateOf(st); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused batch changed the store:\nbefore %+v\nafter  %+v", before, after)
			}
			if !reflect.DeepEqual(snapshotOf(t, st), snapBefore) {
				t.Fatal("refused batch changed the snapshot bytes")
			}

			// The refusal cost nothing: the same store ingests the good
			// documents and its snapshot resumes to what a store that never
			// saw the batch holds.
			if err := st.AddDocuments(corpus.Docs[2:]...); err != nil {
				t.Fatal(err)
			}
			ref := core.NewStore(task, opts)
			defer ref.Close()
			if err := ref.AddDocuments(corpus.Docs[:2]...); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddDocuments(corpus.Docs[2:]...); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "snap")
			if err := st.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snapshotBytes(t, dir), snapshotOf(t, ref)) {
				t.Fatal("snapshot differs from a store that never saw the refused batch")
			}
			resumed, err := core.OpenStore(dir, task, opts)
			if err != nil {
				t.Fatalf("snapshot after a refused batch does not resume: %v", err)
			}
			resumed.Close()
		})
	}
}

// TestStoreLFIteration exercises the shared dev/production state: LF
// add/edit on a store, with the Labels relation re-materialized (rows
// deleted and rewritten) on edit.
func TestStoreLFIteration(t *testing.T) {
	corpus := synth.Electronics(65, 6)
	task := corpus.Tasks[0]
	st := core.NewStore(task, core.Options{Epochs: 1, LFs: []labeling.LF{}})
	if err := st.AddDocuments(corpus.Docs...); err != nil {
		t.Fatal(err)
	}
	if st.NumLFs() != 0 {
		t.Fatalf("fresh store has %d LFs", st.NumLFs())
	}
	labelsLen := func() int { return st.DB().Table("labels").Len() }
	if labelsLen() != 0 {
		t.Fatal("labels relation must start empty")
	}
	col, err := st.AddLF(task.LFs[0])
	if err != nil {
		t.Fatal(err)
	}
	n1 := labelsLen()
	if n1 == 0 {
		t.Fatal("AddLF must materialize label rows")
	}
	// An always-abstain edit deletes the column's rows.
	if err := st.EditLF(col, labeling.LF{Name: "abstain", Fn: func(*candidates.Candidate) int { return 0 }}); err != nil {
		t.Fatal(err)
	}
	if labelsLen() != 0 {
		t.Fatalf("abstain edit left %d label rows", labelsLen())
	}
	// Restore the real LF; rows come back.
	if err := st.EditLF(col, task.LFs[0]); err != nil {
		t.Fatal(err)
	}
	if labelsLen() != n1 {
		t.Fatalf("re-edit rows = %d, want %d", labelsLen(), n1)
	}
	if err := st.EditLF(99, task.LFs[0]); err == nil {
		t.Fatal("editing a missing column must error")
	}
}

// TestSnapshotIgnoresLFHistory: a snapshot is a function of the session's
// state, not of the LF edits that led to it. A session that labels with
// the task's LFs from the start snapshots byte for byte like one that
// starts with none, adds each LF, edits one to always abstain and then
// restores it. The deprecated DB(), saved by kbase.SaveDB, writes the
// same bytes as Snapshot — they share one row source — and a view's
// running row counts match its tables.
func TestSnapshotIgnoresLFHistory(t *testing.T) {
	corpus := synth.Electronics(65, 6)
	task := corpus.Tasks[0]
	direct := core.NewStore(task, core.Options{Epochs: 1})
	edited := core.NewStore(task, core.Options{Epochs: 1, LFs: []labeling.LF{}})
	for _, st := range []*core.Store{direct, edited} {
		if err := st.AddDocuments(corpus.Docs...); err != nil {
			t.Fatal(err)
		}
	}
	for _, lf := range task.LFs {
		if _, err := edited.AddLF(lf); err != nil {
			t.Fatal(err)
		}
	}
	col := len(task.LFs) / 2
	if err := edited.EditLF(col, labeling.LF{Name: "abstain", Fn: func(*candidates.Candidate) int { return 0 }}); err != nil {
		t.Fatal(err)
	}
	if err := edited.EditLF(col, task.LFs[col]); err != nil {
		t.Fatal(err)
	}

	want := snapshotOf(t, direct)
	if labels := strings.Count(string(want["labels.tsv"]), "\n"); labels < 2 {
		t.Fatalf("labels.tsv holds %d lines, want votes", labels)
	}
	got := snapshotOf(t, edited)
	for name, body := range want {
		if !slices.Equal(got[name], body) {
			t.Errorf("%s differs after AddLF/EditLF from the session labeled from the start", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("snapshot file sets differ: %d vs %d files", len(got), len(want))
	}

	dir := filepath.Join(t.TempDir(), "db")
	if err := kbase.SaveDB(edited.DB(), dir); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotBytes(t, dir), got) {
		t.Error("kbase.SaveDB(st.DB()) writes other bytes than st.Snapshot")
	}

	view, err := edited.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	db := edited.DB()
	for _, name := range db.Names() {
		if rows, n := view.TableRows()[name], db.Table(name).Len(); rows != n {
			t.Errorf("TableRows()[%s] = %d, the table holds %d", name, rows, n)
		}
	}
}
