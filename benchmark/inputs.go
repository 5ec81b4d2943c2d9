package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/synth"
)

const (
	domain   = "electronics"
	relation = "HasCollectorCurrent"
)

// rawDoc is one document as a user would upload it: HTML plus the rendered
// visual layout (the PDF-printer substitute).
type rawDoc struct {
	Name, HTML, VDoc string
}

func (d rawDoc) size() int { return len(d.HTML) + len(d.VDoc) }

// inputs is the document pool and the task every workload extracts.
type inputs struct {
	task core.Task
	gold []core.GoldTuple
	docs []rawDoc
}

// makeInputs generates the first n documents of the pool from their
// serialized sources only; nothing parsed is kept, so every workload pays
// for parsing where a user would.
func makeInputs(n int) (*inputs, error) {
	c := synth.Electronics(poolSeed, n)
	in := &inputs{gold: c.GoldTuples[relation]}
	for _, t := range c.Tasks {
		if t.Relation == relation {
			in.task = t
		}
	}
	if in.task.Relation == "" {
		return nil, fmt.Errorf("synthetic %s corpus has no %s task", domain, relation)
	}
	for i, src := range c.Sources {
		in.docs = append(in.docs, rawDoc{Name: c.Docs[i].Name, HTML: src["html"], VDoc: src["vdoc"]})
	}
	return in, nil
}

// uploadOrder is the seeded order in which pool documents arrive: the same
// seed gives the same order, another seed another. ends are the ascending
// ends of consecutive blocks of the pool; documents are shuffled inside
// their block only. A workload makes each of its phases a block, so every
// seed has the same documents in by the time a phase ends (and trains on
// the same set), in another order.
func uploadOrder(seed int64, ends ...int) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	start := 0
	for _, end := range ends {
		for _, i := range rng.Perm(end - start) {
			order = append(order, start+i)
		}
		start = end
	}
	return order
}

// splitOrder is the batch workload's seeded train/test split. Membership is
// by pool position (even = train, odd = test) so every seed trains on the
// same documents and the work per iteration is fixed; the seed orders the
// documents inside each half.
func splitOrder(seed int64, n int) (train, test []int) {
	for _, i := range uploadOrder(seed, n) {
		if i%2 == 0 {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	return train, test
}

func (in *inputs) pick(order []int) []rawDoc {
	out := make([]rawDoc, len(order))
	for i, p := range order {
		out[i] = in.docs[p]
	}
	return out
}

func totalBytes(docs []rawDoc) int {
	n := 0
	for _, d := range docs {
		n += d.size()
	}
	return n
}

// parseDoc is the ingestion path of one upload: parse the HTML, parse the
// layout, align the two. It returns the aligner's exact-match rate. The
// tracer, when set, records the two parser calls under parent.
func parseDoc(tr *tracer, parent, op int, d rawDoc) (*datamodel.Document, float64, error) {
	var doc *datamodel.Document
	tr.run("parser.parse", parent, op, func(int) { doc = parser.ParseHTML(d.Name, d.HTML) })
	var rate float64
	var err error
	tr.run("parser.align", parent, op, func(int) {
		var v *parser.VDoc
		if v, err = parser.ParseVDoc(d.VDoc); err == nil {
			rate = parser.AlignVisual(doc, v)
		}
	})
	return doc, rate, err
}

// parseDocs parses a batch, also returning the summed alignment rates.
func parseDocs(tr *tracer, parent, op int, docs []rawDoc) ([]*datamodel.Document, float64, error) {
	out := make([]*datamodel.Document, len(docs))
	rates := 0.0
	for i, d := range docs {
		doc, rate, err := parseDoc(tr, parent, op, d)
		if err != nil {
			return nil, 0, fmt.Errorf("document %s: %w", d.Name, err)
		}
		out[i] = doc
		rates += rate
	}
	return out, rates, nil
}

// ingestBody is the POST /ingest request body for one batch.
func ingestBody(docs []rawDoc) []byte {
	req := struct {
		Documents []serve.DocumentUpload `json:"documents"`
	}{}
	for _, d := range docs {
		req.Documents = append(req.Documents, serve.DocumentUpload{Name: d.Name, Format: "html", Source: d.HTML, VDoc: d.VDoc})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return body
}

// batches cuts docs into upload batches of size n.
func batches(docs []rawDoc, n int) [][]rawDoc {
	var out [][]rawDoc
	for i := 0; i < len(docs); i += n {
		out = append(out, docs[i:min(i+n, len(docs))])
	}
	return out
}

// ---- The read mix.

type readKind int

const (
	readPage readKind = iota
	readFilter
	readFull
	readCandidates
	readMeta
	numReadKinds
)

var readKindNames = [numReadKinds]string{"kb_page", "kb_filter", "kb_full", "candidates", "meta"}

// readOp is one distinct URL of the read mix. Page reads remember their
// offset; filter probes the probed part and whether the KB is known not
// to hold it.
type readOp struct {
	kind   readKind
	url    string
	offset int
	probe  string
	absent bool
}

// readTable is every distinct URL the read mix can issue against one
// preloaded KB, grouped by kind; streams draw indexes into ops.
type readTable struct {
	ops    []readOp
	byKind [numReadKinds][]int
}

const (
	pageLimit      = 50
	candidateLimit = 10
	absentProbes   = 16
)

// newReadTable enumerates the mix's URLs for a KB of kbTotal tuples whose
// distinct part values are parts, over candTotal candidates.
func newReadTable(kbTotal int, parts []string, candTotal int) *readTable {
	rt := &readTable{}
	add := func(op readOp) {
		rt.byKind[op.kind] = append(rt.byKind[op.kind], len(rt.ops))
		rt.ops = append(rt.ops, op)
	}
	for k := 0; k <= max(0, kbTotal-pageLimit); k++ {
		add(readOp{kind: readPage, url: fmt.Sprintf("/kb?limit=%d&offset=%d", pageLimit, k), offset: k})
	}
	for _, p := range parts {
		add(readOp{kind: readFilter, url: "/kb?part=" + p, probe: p})
	}
	for i := 0; i < absentProbes; i++ {
		p := fmt.Sprintf("absent%04d", i)
		add(readOp{kind: readFilter, url: "/kb?part=" + p, probe: p, absent: true})
	}
	add(readOp{kind: readFull, url: "/kb"})
	for k := 0; k <= max(0, candTotal-candidateLimit); k += candidateLimit {
		add(readOp{kind: readCandidates, url: fmt.Sprintf("/candidates?limit=%d&offset=%d", candidateLimit, k)})
	}
	add(readOp{kind: readMeta, url: "/meta"})
	return rt
}

// stream returns connection conn's seeded request generator: 50 % page
// reads at a uniform offset, 25 % part filters (one probe in five absent
// from the KB), 10 % whole-table exports, 10 % candidate pages, 5 % /meta.
func (rt *readTable) stream(seed int64, conn int) func() int {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)))
	nParts := len(rt.byKind[readFilter]) - absentProbes
	return func() int {
		switch r := rng.Float64(); {
		case r < 0.50:
			return rt.byKind[readPage][rng.Intn(len(rt.byKind[readPage]))]
		case r < 0.75:
			if nParts == 0 || rng.Intn(5) == 0 {
				return rt.byKind[readFilter][nParts+rng.Intn(absentProbes)]
			}
			return rt.byKind[readFilter][rng.Intn(nParts)]
		case r < 0.85:
			return rt.byKind[readFull][0]
		case r < 0.95:
			return rt.byKind[readCandidates][rng.Intn(len(rt.byKind[readCandidates]))]
		default:
			return rt.byKind[readMeta][0]
		}
	}
}

// sequence is the first n URLs of a stream (tests and the traced replay).
func (rt *readTable) sequence(seed int64, conn, n int) []int {
	next := rt.stream(seed, conn)
	out := make([]int, n)
	for i := range out {
		out[i] = next()
	}
	return out
}
