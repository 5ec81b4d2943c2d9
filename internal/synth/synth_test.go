package synth

import (
	"reflect"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/labeling"
)

// balance summarizes the class balance of a labeled candidate set —
// the quantity throttlers are tuned against (Section 4.1 recommends
// balancing negative and positive candidates).
type balance struct {
	Positives, Negatives int
}

// Ratio returns negatives per positive (+Inf when no positives).
func (b balance) Ratio() float64 {
	if b.Positives == 0 {
		if b.Negatives == 0 {
			return 0
		}
		return float64(b.Negatives) * 1e18 // effectively infinite
	}
	return float64(b.Negatives) / float64(b.Positives)
}

// measureBalance counts positives and negatives under a gold oracle.
func measureBalance(cands []*candidates.Candidate, gold func(*candidates.Candidate) bool) balance {
	var b balance
	for _, c := range cands {
		if gold(c) {
			b.Positives++
		} else {
			b.Negatives++
		}
	}
	return b
}

func TestBalance(t *testing.T) {
	cands := []*candidates.Candidate{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	b := measureBalance(cands, func(c *candidates.Candidate) bool { return c.ID%2 == 0 })
	if b.Positives != 2 || b.Negatives != 2 {
		t.Fatalf("balance = %+v", b)
	}
	if b.Ratio() != 1 {
		t.Fatalf("ratio = %v", b.Ratio())
	}
	if (balance{}).Ratio() != 0 {
		t.Fatal("empty ratio")
	}
	if (balance{Negatives: 5}).Ratio() < 1e18 {
		t.Fatal("no-positive ratio must be effectively infinite")
	}
}

func extractor(task core.Task, scope candidates.Scope, throttle bool) *candidates.Extractor {
	e := &candidates.Extractor{Args: task.Args, Scope: scope}
	if throttle {
		e.Throttlers = task.Throttlers
	}
	return e
}

func TestElectronicsDeterministic(t *testing.T) {
	a := Electronics(7, 5)
	b := Electronics(7, 5)
	if len(a.Docs) != 5 || len(b.Docs) != 5 {
		t.Fatalf("docs = %d, %d", len(a.Docs), len(b.Docs))
	}
	for i := range a.Sources {
		if !reflect.DeepEqual(a.Sources[i], b.Sources[i]) {
			t.Fatalf("doc %d sources differ across same-seed runs", i)
		}
	}
	c := Electronics(8, 5)
	if reflect.DeepEqual(a.Sources[0], c.Sources[0]) {
		t.Fatal("different seeds should differ")
	}
}

func TestElectronicsShape(t *testing.T) {
	c := Electronics(1, 30)
	if len(c.Tasks) != 4 {
		t.Fatalf("tasks = %d", len(c.Tasks))
	}
	flattened := 0
	for _, d := range c.Docs {
		switch len(d.Tables()) {
		case 1:
			flattened++ // lossy-converter variant: ordering table only
		case 2:
		default:
			t.Fatalf("%s tables = %d", d.Name, len(d.Tables()))
		}
		if d.Pages < 1 {
			t.Fatalf("%s pages = %d", d.Name, d.Pages)
		}
		// Visual modality present (PDF domain).
		vis := 0
		for _, s := range d.Sentences() {
			if s.HasVisual() {
				vis++
			}
		}
		if vis == 0 {
			t.Fatalf("%s has no visual sentences", d.Name)
		}
	}
	if flattened == 0 || flattened == len(c.Docs) {
		t.Fatalf("flattened variant count = %d of %d", flattened, len(c.Docs))
	}
	if c.GoldKB["HasCollectorCurrent"].Len() == 0 {
		t.Fatal("empty gold KB")
	}
}

// TestElectronicsCandidatesAndGold verifies that document-scope
// extraction reaches every gold tuple (high recall ceiling) and that
// restricted scopes reach almost none — the Figure 6 premise.
func TestElectronicsCandidatesAndGold(t *testing.T) {
	c := Electronics(2, 40)
	task := c.Tasks[0] // HasCollectorCurrent

	covered := func(scope candidates.Scope) (int, int) {
		e := extractor(task, scope, false)
		found := map[string]bool{}
		total := 0
		for _, d := range c.Docs {
			for _, cand := range e.Extract(d) {
				total++
				if task.Gold(cand) {
					found[cand.Doc().Name+"|"+cand.Values()[0]+"|"+cand.Values()[1]] = true
				}
			}
		}
		return len(found), total
	}

	goldTotal := 0
	for _, d := range c.Docs {
		_ = d
	}
	goldTotal = c.GoldKB["HasCollectorCurrent"].Len()
	if goldTotal == 0 {
		t.Fatal("no gold")
	}

	docFound, docTotal := covered(candidates.DocumentScope)
	sentFound, _ := covered(candidates.SentenceScope)
	tblFound, _ := covered(candidates.TableScope)

	if docFound < int(0.95*float64(goldTotal)) {
		t.Fatalf("document scope covers %d/%d gold tuples", docFound, goldTotal)
	}
	if sentFound > goldTotal/5 {
		t.Fatalf("sentence scope should be rare: %d/%d", sentFound, goldTotal)
	}
	if tblFound > goldTotal/2 || tblFound < 1 {
		t.Fatalf("table scope should be a small slice: %d/%d", tblFound, goldTotal)
	}
	// Class imbalance: negatives dominate before throttling.
	e := extractor(task, candidates.DocumentScope, false)
	bal := measureBalance(e.ExtractAll(c.Docs), task.Gold)
	if bal.Ratio() < 1.5 {
		t.Fatalf("unthrottled balance should skew negative: %+v", bal)
	}
	// Throttling improves balance but keeps positives.
	et := extractor(task, candidates.DocumentScope, true)
	balT := measureBalance(et.ExtractAll(c.Docs), task.Gold)
	if balT.Positives < bal.Positives*9/10 {
		t.Fatalf("throttler lost positives: %+v -> %+v", bal, balT)
	}
	if balT.Ratio() >= bal.Ratio() {
		t.Fatalf("throttler should improve balance: %v -> %v", bal.Ratio(), balT.Ratio())
	}
	_ = docTotal
}

func TestElectronicsLFQuality(t *testing.T) {
	c := Electronics(3, 25)
	task := c.Tasks[0]
	e := extractor(task, candidates.DocumentScope, true)
	cands := e.ExtractAll(c.Docs)
	m := labeling.ParallelApply(task.LFs, cands, 0)
	met := labeling.ComputeMetrics(m)
	if met.Coverage < 0.8 {
		t.Fatalf("LF coverage = %v", met.Coverage)
	}
	// The denoised marginals must track gold far better than chance.
	mod := labeling.Fit(m, labeling.FitOptions{})
	marg := mod.Marginals(m)
	correct := 0
	for i, cand := range cands {
		if (marg[i] > 0.5) == task.Gold(cand) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(cands))
	if acc < 0.85 {
		t.Fatalf("label-model accuracy vs gold = %v", acc)
	}
}

func TestAdsShape(t *testing.T) {
	c := Ads(4, 40)
	if len(c.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(c.Tasks))
	}
	task := c.Tasks[0]
	// Text oracle (sentence scope) reaches a sizable slice; ads are
	// text-heavy.
	eSent := extractor(task, candidates.SentenceScope, false)
	eDoc := extractor(task, candidates.DocumentScope, false)
	sentGold, docGold := 0, 0
	for _, d := range c.Docs {
		for _, cand := range eSent.Extract(d) {
			if task.Gold(cand) {
				sentGold++
				break
			}
		}
	}
	for _, d := range c.Docs {
		for _, cand := range eDoc.Extract(d) {
			if task.Gold(cand) {
				docGold++
				break
			}
		}
	}
	if docGold < 38 {
		t.Fatalf("document scope covers %d/40 docs", docGold)
	}
	if sentGold < 5 {
		t.Fatalf("ads should have sentence-level relations: %d", sentGold)
	}
	if sentGold >= docGold {
		t.Fatalf("sentence scope should still miss some: %d vs %d", sentGold, docGold)
	}
}

func TestPaleoShape(t *testing.T) {
	c := Paleo(5, 20)
	task := c.Tasks[0]
	// Long documents: multiple pages.
	multi := 0
	for _, d := range c.Docs {
		if d.Pages >= 2 {
			multi++
		}
	}
	if multi < len(c.Docs)/2 {
		t.Fatalf("paleo docs should be long: %d/%d multi-page", multi, len(c.Docs))
	}
	// No sentence-scope relations at all.
	eSent := extractor(task, candidates.SentenceScope, false)
	for _, d := range c.Docs {
		for _, cand := range eSent.Extract(d) {
			if task.Gold(cand) {
				t.Fatalf("paleo gold tuple found in a single sentence: %v", cand)
			}
		}
	}
	// Document scope reaches the gold.
	eDoc := extractor(task, candidates.DocumentScope, true)
	found := 0
	for _, cand := range eDoc.ExtractAll(c.Docs) {
		if task.Gold(cand) {
			found++
		}
	}
	if found == 0 {
		t.Fatal("document scope found no gold")
	}
}

func TestGenomicsShape(t *testing.T) {
	c := Genomics(6, 20)
	task := c.Tasks[0]
	// No visual modality.
	for _, d := range c.Docs {
		for _, s := range d.Sentences() {
			if s.HasVisual() {
				t.Fatalf("%s: XML corpus must have no visuals", d.Name)
			}
		}
	}
	// Cross-context always: zero sentence- or table-scope gold tuples.
	for _, scope := range []candidates.Scope{candidates.SentenceScope, candidates.TableScope} {
		e := extractor(task, scope, false)
		for _, cand := range e.ExtractAll(c.Docs) {
			if task.Gold(cand) {
				t.Fatalf("genomics gold tuple in %v scope: %v", scope, cand)
			}
		}
	}
	// Document scope with throttler covers nearly all gold.
	e := extractor(task, candidates.DocumentScope, true)
	found := map[string]bool{}
	for _, cand := range e.ExtractAll(c.Docs) {
		if task.Gold(cand) {
			found[cand.Doc().Name+"|"+cand.Values()[0]] = true
		}
	}
	if len(found) < c.GoldKB["HasAssociation"].Len()*9/10 {
		t.Fatalf("document scope covers %d/%d", len(found), c.GoldKB["HasAssociation"].Len())
	}
	// LF quality: significant vs suggestive rows separable. Reset so
	// candidate IDs are dense again for the label matrix.
	e.Reset()
	cands := e.ExtractAll(c.Docs)
	m := labeling.ParallelApply(task.LFs, cands, 0)
	mod := labeling.Fit(m, labeling.FitOptions{})
	marg := mod.Marginals(m)
	correct := 0
	for i, cand := range cands {
		if (marg[i] > 0.5) == task.Gold(cand) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(cands)); acc < 0.85 {
		t.Fatalf("genomics label accuracy = %v", acc)
	}
}

func TestSplit(t *testing.T) {
	c := Electronics(9, 10)
	train, test := c.Split()
	if len(train) != 5 || len(test) != 5 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	seen := map[*datamodel.Document]bool{}
	for _, d := range append(train, test...) {
		if seen[d] {
			t.Fatal("split overlaps")
		}
		seen[d] = true
	}
}

func TestGoldSetCaseInsensitive(t *testing.T) {
	g := goldSet{}
	g["doc\x00smbt3904\x00200"] = true
	b := datamodel.NewBuilder("doc", "html")
	tx := b.AddText()
	p := b.AddParagraph(tx)
	s := b.AddSentence(p, []string{"SMBT3904", "200"})
	b.Finish()
	cand := &candidates.Candidate{Mentions: []candidates.Mention{
		{TypeName: "a", Span: datamodel.Span{Sentence: s, Start: 0, End: 1}},
		{TypeName: "b", Span: datamodel.Span{Sentence: s, Start: 1, End: 2}},
	}}
	if !g.has(cand) {
		t.Fatal("gold lookup should be case-insensitive")
	}
}

func TestRenderLayoutPagination(t *testing.T) {
	c := Paleo(11, 3)
	for i, d := range c.Docs {
		src := c.Sources[i]
		if src["vdoc"] == "" || src["html"] == "" {
			t.Fatal("sources missing")
		}
		// Word boxes must be positive-sized and within page bounds.
		for _, s := range d.Sentences() {
			if !s.HasVisual() {
				continue
			}
			for _, b := range s.Boxes {
				if b.Width() <= 0 || b.Height() <= 0 {
					t.Fatalf("degenerate box %+v in %s", b, d.Name)
				}
			}
		}
	}
}
