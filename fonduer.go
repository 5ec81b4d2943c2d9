// Package fonduer is a from-scratch Go reproduction of Fonduer
// (Wu et al., SIGMOD 2018): a machine-learning-based system for
// knowledge base construction from richly formatted data — documents
// whose relations are expressed jointly through textual, structural,
// tabular and visual signals.
//
// The package is the public facade over the implementation packages:
//
//   - a multimodal data model (Document/Section/Table/Cell/Sentence
//     DAG with structural, tabular and visual attributes);
//   - parsers for HTML, XML and rendered visual layouts, with
//     cross-format word alignment;
//   - candidate generation from matchers and throttlers over
//     document-level context;
//   - an automatically generated multimodal feature library with
//     mention-level caching;
//   - data-programming supervision: labeling functions denoised by a
//     generative label model;
//   - a multimodal Bi-LSTM with attention, trained noise-aware, plus
//     the paper's baseline models;
//   - a small relational store holding the output knowledge base and
//     the pipeline's intermediate relations, with store-backed
//     sessions (NewStore/OpenStore) that ingest documents
//     incrementally and resume from disk snapshots without
//     re-parsing or re-extracting.
//
// # Quickstart
//
// Define a task — a schema, one matcher per argument, optional
// throttlers, and labeling functions — then run the pipeline:
//
//	doc := fonduer.ParseHTML("sheet", html)
//	task := fonduer.Task{
//	    Relation: "HasCollectorCurrent",
//	    Schema:   fonduer.MustSchema("HasCollectorCurrent", "part", "current"),
//	    Args: []fonduer.ArgSpec{
//	        {TypeName: "Part", Matcher: fonduer.RegexMatcher(`SMBT[0-9]{4}`)},
//	        {TypeName: "Current", Matcher: fonduer.NumberRange(100, 995)},
//	    },
//	    LFs: []fonduer.LabelingFunction{...},
//	}
//	result := fonduer.Run(task, trainDocs, testDocs, nil, fonduer.Options{})
//
// Documents are processed atomically, so the pipeline's extraction,
// featurization and supervision stages run on a worker pool sized by
// Options.Workers (0 = all cores, 1 = sequential); training takes one
// Adam step per example. Results are bit-identical at any worker count.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// system inventory.
package fonduer

import (
	"fmt"
	"io"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/kbase"
	"repro/internal/labeling"
	"repro/internal/matchers"
	"repro/internal/parser"
	"repro/internal/synth"
)

// Data model types (Section 3.1 of the paper).
type (
	// Document is the root of a parsed document's context DAG.
	Document = datamodel.Document
	// Sentence is the leaf context carrying multimodal attributes.
	Sentence = datamodel.Sentence
	// Span is a run of words in one sentence; the unit of mentions.
	Span = datamodel.Span
	// Box is a rendered bounding box.
	Box = datamodel.Box
	// Font describes rendered text.
	Font = datamodel.Font
)

// Candidate-generation types (Section 4.1).
type (
	// Candidate is an n-ary tuple of mentions.
	Candidate = candidates.Candidate
	// Mention is one typed argument of a candidate.
	Mention = candidates.Mention
	// ArgSpec couples a schema type with its matcher.
	ArgSpec = candidates.ArgSpec
	// Matcher decides whether a span is a mention.
	Matcher = matchers.Matcher
	// Throttler prunes candidates.
	Throttler = candidates.Throttler
	// Scope bounds candidate context (sentence/table/page/document).
	Scope = candidates.Scope
)

// Context scopes. DocumentScope is Fonduer's default.
const (
	DocumentScope = candidates.DocumentScope
	SentenceScope = candidates.SentenceScope
	TableScope    = candidates.TableScope
	PageScope     = candidates.PageScope
)

// Supervision and pipeline types (Sections 3.2 and 4.3).
type (
	// LabelingFunction labels candidates +1 / -1 / 0 using any
	// modality of the data model.
	LabelingFunction = labeling.LF
	// Task bundles the user inputs of one extraction task.
	Task = core.Task
	// Options configure a pipeline run.
	Options = core.Options
	// Result summarizes a pipeline run.
	Result = core.Result
	// GoldTuple is a document-scoped ground-truth tuple.
	GoldTuple = core.GoldTuple
	// PRF is a precision/recall/F1 triple.
	PRF = core.PRF
	// Schema is a target relation schema.
	Schema = kbase.Schema
	// KB is the relational store holding extracted relations.
	KB = kbase.DB
	// KBTable is one relation's tuple set.
	KBTable = kbase.Table
	// Tuple is one knowledge-base row.
	Tuple = kbase.Tuple
	// Corpus is a generated demo dataset with tasks and gold.
	Corpus = synth.Corpus
	// Variant selects the discriminative model (Fonduer or a paper
	// baseline).
	Variant = core.Variant
)

// Model variants (Tables 4-6 of the paper).
const (
	// VariantFonduer is the full multimodal model (default).
	VariantFonduer = core.VariantFonduer
	// VariantTextLSTM is the text-only Bi-LSTM with attention.
	VariantTextLSTM = core.VariantTextLSTM
	// VariantHumanTuned is a linear model over the feature library.
	VariantHumanTuned = core.VariantHumanTuned
	// VariantSRV learns from HTML (structural+textual) features only.
	VariantSRV = core.VariantSRV
	// VariantDocRNN is the document-level RNN baseline.
	VariantDocRNN = core.VariantDocRNN
)

// Run executes Fonduer's full pipeline: candidate generation from the
// training and test documents, multimodal featurization, supervision
// via labeling functions denoised by the generative label model,
// noise-aware training of the multimodal LSTM, classification, and
// (when gold tuples are supplied) evaluation.
func Run(task Task, train, test []*Document, gold []GoldTuple, opts Options) Result {
	return core.Run(task, train, test, gold, opts)
}

// ParseHTML parses HTML source into the data model.
func ParseHTML(name, src string) *Document { return parser.ParseHTML(name, src) }

// ParseXML parses well-formed XML into the data model (no visual
// modality).
func ParseXML(name, src string) (*Document, error) { return parser.ParseXML(name, src) }

// AlignVDoc parses a rendered visual layout in the vdoc format and
// merges its coordinates into a structurally parsed document,
// returning the fraction of exactly matched words.
func AlignVDoc(d *Document, vdocSrc string) (float64, error) {
	v, err := parser.ParseVDoc(vdocSrc)
	if err != nil {
		return 0, err
	}
	return parser.AlignVisual(d, v), nil
}

// MustSchema builds a relation schema from "name:type" column specs
// (types: varchar, integer, float; default varchar). It panics on
// malformed specs; use NewSchema for error returns.
func MustSchema(relation string, cols ...string) Schema {
	s, err := kbase.NewSchema(relation, cols...)
	if err != nil {
		panic("fonduer: " + err.Error())
	}
	return s
}

// NewSchema builds a relation schema, returning an error on malformed
// column specs.
func NewSchema(relation string, cols ...string) (Schema, error) {
	return kbase.NewSchema(relation, cols...)
}

// NewKB returns an empty knowledge base.
func NewKB() *KB { return kbase.NewDB() }

// RegexMatcher matches spans whose entire text matches the pattern.
// It panics on an invalid pattern.
func RegexMatcher(pattern string) Matcher { return matchers.MustRegex(pattern) }

// DictionaryMatcher matches spans appearing in the entry set
// (case-insensitive; multi-word entries allowed).
func DictionaryMatcher(name string, entries ...string) Matcher {
	return matchers.NewDictionary(name, entries...)
}

// NumberRange matches single-token numeric spans within [min, max].
func NumberRange(min, max float64) Matcher {
	return matchers.NumberRange{Min: min, Max: max}
}

// MatcherFunc adapts a function to the Matcher interface.
func MatcherFunc(name string, fn func(Span) bool) Matcher {
	return matchers.Func{MatcherName: name, Fn: fn}
}

// Union matches when any sub-matcher matches.
func Union(ms ...Matcher) Matcher { return matchers.Union(ms) }

// Intersect matches when all sub-matchers match.
func Intersect(ms ...Matcher) Matcher { return matchers.Intersect(ms) }

// Traversal helpers for labeling functions and custom matchers: these
// expose the data model's multimodal attributes (Section 3.1).
var (
	// RowNgrams returns lowercase words from cells sharing the span's
	// grid row (own cell excluded).
	RowNgrams = datamodel.RowNgrams
	// ColNgrams returns lowercase words from cells sharing the span's
	// grid column (own cell excluded).
	ColNgrams = datamodel.ColNgrams
	// CellNgrams returns the lowercase words of the span's own cell.
	CellNgrams = datamodel.CellNgrams
	// RowHeaderNgrams returns the words of the span's row header.
	RowHeaderNgrams = datamodel.RowHeaderNgrams
	// ColHeaderNgrams returns the words of the span's column header.
	ColHeaderNgrams = datamodel.ColHeaderNgrams
	// AlignedNgrams returns words visually aligned with the span.
	AlignedNgrams = datamodel.AlignedNgrams
	// Contains reports whether any needle occurs in the haystack.
	Contains = datamodel.Contains
	// SameRow / SameCol / SameCell / SameTable / SamePage /
	// SameSentence relate two spans within the data model.
	SameRow      = datamodel.SameRow
	SameCol      = datamodel.SameCol
	SameCell     = datamodel.SameCell
	SameTable    = datamodel.SameTable
	SamePage     = datamodel.SamePage
	SameSentence = datamodel.SameSentence
	// HorzAligned / VertAligned relate spans in the rendered view.
	HorzAligned = datamodel.HorzAligned
	VertAligned = datamodel.VertAligned
)

// Demo corpora: the synthetic datasets standing in for the paper's
// four evaluation domains (see DESIGN.md §2 for the substitution
// rationale). Each corpus carries ready-made tasks (matchers,
// throttlers, labeling functions) and gold tuples for evaluation.

// ElectronicsCorpus generates transistor-datasheet documents with four
// relations (collector current and three voltage ratings).
func ElectronicsCorpus(seed int64, nDocs int) *Corpus { return synth.Electronics(seed, nDocs) }

// AdsCorpus generates heterogeneous advertisement webpages with a
// HasPrice(location, price) task.
func AdsCorpus(seed int64, nDocs int) *Corpus { return synth.Ads(seed, nDocs) }

// PaleoCorpus generates long journal articles with a
// HasMeasurement(formation, length) task.
func PaleoCorpus(seed int64, nDocs int) *Corpus { return synth.Paleo(seed, nDocs) }

// GenomicsCorpus generates native-XML GWAS articles with a
// HasAssociation(snp, phenotype) task.
func GenomicsCorpus(seed int64, nDocs int) *Corpus { return synth.Genomics(seed, nDocs) }

// CorpusByDomain generates the named domain's corpus — the one lookup
// shared by cmd/fonduer, cmd/synthgen and cmd/fonduer-serve, so every
// binary resolves "-domain" to identical task definitions (matchers,
// throttlers, labeling functions).
func CorpusByDomain(domain string, seed int64, nDocs int) (*Corpus, error) {
	switch domain {
	case "electronics":
		return ElectronicsCorpus(seed, nDocs), nil
	case "ads":
		return AdsCorpus(seed, nDocs), nil
	case "paleo":
		return PaleoCorpus(seed, nDocs), nil
	case "genomics":
		return GenomicsCorpus(seed, nDocs), nil
	default:
		return nil, fmt.Errorf("unknown domain %q (want electronics, ads, paleo or genomics)", domain)
	}
}

// AlternateSplit partitions an ordered document-name list into
// train/test by alternating position — the single split rule shared
// by cmd/fonduer's fresh and store-resume paths.
func AlternateSplit(names []string) (train, test []string) {
	return core.AlternateSplit(names)
}

// WriteKB inserts predicted tuples into a knowledge-base table
// matching the task's schema, creating the table if needed, and
// returns it. Duplicate tuples are deduplicated by the store.
func WriteKB(db *KB, task Task, predicted []GoldTuple) (*KBTable, error) {
	tbl := db.Table(task.Schema.Name)
	if tbl == nil {
		var err error
		tbl, err = db.Create(task.Schema)
		if err != nil {
			return nil, err
		}
	}
	for _, t := range predicted {
		tup := make(kbase.Tuple, len(t.Values))
		for i, v := range t.Values {
			tup[i] = v
		}
		if _, err := tbl.Insert(tup); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// Development-mode types (Section 3.3): the iterative loop in which
// users improve labeling functions through error analysis without
// rerunning extraction or featurization.
type (
	// DevSession holds extracted candidates and an incrementally
	// updated label matrix across LF iterations.
	DevSession = core.DevSession
	// UncertainCandidate pairs a candidate with its marginal; the
	// active-learning extension's unit of feedback.
	UncertainCandidate = core.UncertainCandidate
	// LFMetrics are per-labeling-function development metrics.
	LFMetrics = labeling.LFMetrics
)

// NewDevSession extracts candidates once and prepares the iterative
// supervision loop over them. It fails as Store.AddDocuments does: on
// two documents sharing a name, or one that cannot be persisted.
func NewDevSession(task Task, docs []*Document) (*DevSession, error) {
	return core.NewDevSession(task, docs)
}

// MostUncertain ranks candidates by closeness to the decision boundary
// — the active-learning extension of the paper's future-work section.
func MostUncertain(cands []*Candidate, marginals []float64, k int) []UncertainCandidate {
	return core.MostUncertain(cands, marginals, k)
}

// ReadKBTable parses a knowledge-base table previously serialized with
// KBTable.WriteTSV.
func ReadKBTable(r io.Reader) (*KBTable, error) { return kbase.ReadTSV(r) }

// Store-backed sessions: the pipeline's intermediate relations
// (Candidates, Features, Labels; feature counts are derived from
// Features) materialized in the relational store, each fact once,
// supporting incremental document ingestion,
// labeling-function iteration without re-extraction, and
// snapshot/resume across process invocations — the role the paper's
// PostgreSQL database plays. See DESIGN.md §"Store-backed staged
// pipeline".
type (
	// Store is one extraction session's persistent state.
	Store = core.Store
	// StoreView is an immutable snapshot of a Store at one epoch —
	// safe for any number of concurrent readers while a single writer
	// goroutine keeps mutating the store and publishing fresh views.
	// The serving subsystem (internal/serve, cmd/fonduer-serve) is
	// built on it.
	StoreView = core.StoreView
)

// NewStore creates an empty session store for a task; opts fixes the
// session's featurization/supervision configuration. Options.Backend
// is a label the store echoes in StorageStats: it keeps its relations —
// and the parsed documents (DESIGN.md, "Why documents stay resident") —
// in memory on every kind. Store calls report the input they refuse as
// ErrDocumentExists or ErrInvalidDocument.
func NewStore(task Task, opts Options) *Store { return core.NewStore(task, opts) }

// The errors of a Store call, for errors.Is: each refuses a batch and
// leaves the store untouched.
var (
	ErrDocumentExists  = core.ErrDocumentExists
	ErrInvalidDocument = core.ErrInvalidDocument
)

// OpenStore resumes a session snapshotted with Store.Snapshot,
// skipping parsing and candidate extraction entirely. task re-supplies
// the labeling functions (code is not persisted); opts must match the
// persisted configuration on the knobs that shaped the relations. A
// resumed document keeps its sentences and table grids but not its
// text blocks and paragraphs, so an LF added after the resume that
// reads the context tree can vote differently than on the live
// document (core.OpenStore).
func OpenStore(dir string, task Task, opts Options) (*Store, error) {
	return core.OpenStore(dir, task, opts)
}

// IsStoreDir reports whether dir holds a store snapshot.
func IsStoreDir(dir string) bool { return core.IsStoreDir(dir) }

// SessionFromStore wraps a store (e.g. a resumed one) in the
// development-mode DevSession view.
func SessionFromStore(st *Store) *DevSession { return core.SessionFromStore(st) }

// Float64 returns a pointer to v, for Options.ThresholdOverride (nil
// means 0.5; any value, including 0, is taken exactly).
func Float64(v float64) *float64 { return core.Float64(v) }
