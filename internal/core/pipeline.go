package core

import (
	"fmt"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/model"
)

// Variant selects which discriminative model the pipeline trains —
// Fonduer's multimodal LSTM or one of the Section 5.3.3 baselines.
type Variant int

// The model variants of Tables 4-6.
const (
	VariantFonduer Variant = iota
	VariantTextLSTM
	VariantHumanTuned
	VariantSRV
	VariantDocRNN
	VariantMaxPool
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case VariantFonduer:
		return "Fonduer"
	case VariantTextLSTM:
		return "Bi-LSTM w/ Attn."
	case VariantHumanTuned:
		return "Human-tuned"
	case VariantSRV:
		return "SRV"
	case VariantDocRNN:
		return "Document-level RNN"
	case VariantMaxPool:
		return "Bi-LSTM w/ MaxPool"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Options configure one pipeline run.
type Options struct {
	// Variant selects the model (default VariantFonduer).
	Variant Variant
	// Scope is the candidate context scope (default DocumentScope).
	Scope candidates.Scope
	// ThresholdOverride classifies candidates whose marginal
	// probability exceeds it as "True"; nil means 0.5. Any value,
	// including 0, is taken exactly.
	ThresholdOverride *float64
	// DisabledModalities switches feature modalities off (Figure 7).
	DisabledModalities []features.Modality
	// LFs overrides the task's labeling functions when non-nil
	// (Figure 8's supervision ablation and Figure 9's schedules).
	LFs []labeling.LF
	// Marginals, when non-nil, bypasses the supervision stage entirely
	// and trains on these per-candidate probabilities (indexed by
	// train-candidate ID). The user-study simulation uses this for its
	// manual-annotation condition.
	Marginals []float64
	// NoThrottlers disables the task's throttlers.
	NoThrottlers bool
	// Epochs is the number of training passes (default 8).
	Epochs int
	// MinFeatureCount drops features occurring in fewer training
	// candidates (default 2). Identity features — a part number seen
	// in one document — carry no cross-document signal and would let
	// the model memorize the training split.
	MinFeatureCount int
	// Seed drives all stochastic choices.
	Seed int64
	// Workers sizes the worker pool shared by the pipeline's parallel
	// stages — candidate extraction, featurization and
	// labeling-function application. <=0 means GOMAXPROCS. Results are
	// bit-identical at any worker count: documents are processed
	// atomically and merged in corpus order (Appendix C).
	Workers int
	// Backend names a kbase storage engine kind: "memory", "disk" or
	// "columnar"; the zero value "" means "memory". It is a label: a
	// Store echoes it in StorageStats and checks nothing (fonduer-serve
	// validates its -backend flag); the store keeps its relations itself
	// on every kind, so results, snapshots and memory are the same across
	// them. The field goes with the paged kinds (ROADMAP item 13(b)).
	// Ignored by store-less Run calls.
	Backend string
	// Deprecated: MaxResidentDocs is ignored. It used to bound how many
	// parsed documents a Store kept in memory, evicting the rest; every
	// published view pins every document, so the bound moved a counter
	// and no memory (DESIGN.md, "Why documents stay resident"). The
	// field is kept only because benchmark/ still sets it; it goes when
	// the next benchmark-archetype PR drops those literals (ROADMAP
	// item 3(d)).
	MaxResidentDocs int
}

// threshold resolves ThresholdOverride: nil means 0.5.
func (o *Options) threshold() float64 {
	if o.ThresholdOverride != nil {
		return *o.ThresholdOverride
	}
	return 0.5
}

func (o *Options) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 8
	}
	if o.MinFeatureCount == 0 {
		o.MinFeatureCount = 2
	}
	if o.Backend == "" {
		o.Backend = "memory"
	}
}

// Float64 returns a pointer to v, for Options.ThresholdOverride.
func Float64(v float64) *float64 { return &v }

// Result summarizes one pipeline run.
type Result struct {
	Quality PRF
	// Predicted holds the classified-true tuples (deduplicated).
	Predicted []GoldTuple
	// TrainCandidates / TestCandidates count the generated candidates.
	TrainCandidates, TestCandidates int
	// NumFeatures is the feature-space size after training.
	NumFeatures int
	// LFMetrics summarizes the label matrix.
	LFMetrics labeling.Metrics
	// TrainStats reports model training cost (Table 6's runtime).
	TrainStats model.TrainStats
	// CacheStats reports mention-cache effectiveness (Appendix C.1).
	CacheStats features.CacheStats
}

// Run executes the full pipeline for a task: extract candidates from
// the train and test splits, featurize, supervise with labeling
// functions denoised by the generative model, train the selected model
// variant, classify the test candidates, and evaluate the resulting
// tuples against the gold. Gold must contain (at least) the test
// documents' tuples.
//
// Extraction, featurization and labeling fan out over a worker pool of
// Options.Workers goroutines; documents are processed atomically and
// merged in corpus order, so the Result is bit-identical at any worker
// count.
func Run(task Task, train, test []*datamodel.Document, gold []GoldTuple, opts Options) Result {
	opts.defaults()
	trainCands := ParallelExtract(task, train, opts.Scope, !opts.NoThrottlers, opts.Workers)
	testCands := ParallelExtract(task, test, opts.Scope, !opts.NoThrottlers, opts.Workers)
	return RunWithCandidates(task, trainCands, testCands, test, gold, opts)
}

// RunWithCandidates is Run with pre-extracted candidates (used by the
// throttling sweep, which filters candidates itself). Candidate IDs of
// each split must be dense starting at zero, in list order.
//
// The implementation composes the stages of stages.go over transient
// in-memory relations: one Featurize pass per split producing the
// per-candidate Features relation, labeling-function votes
// materialized into the Labels matrix, then runStages (a frozen index
// from the train split's feature counts, Supervise, Train, Classify).
// Store.RunSplit feeds the same runStages from the store's relations.
func RunWithCandidates(task Task, trainCands, testCands []*candidates.Candidate, test []*datamodel.Document, gold []GoldTuple, opts Options) Result {
	opts.defaults()
	newFx := extractorFactory(opts)
	train := featurizeSplit(newFx, trainCands, opts.Workers)
	testSp := featurizeSplit(newFx, testCands, opts.Workers)
	res, _ := runStages(task, opts, train, testSp, labelStage(task, opts, trainCands), DocNames(test), gold)
	return res
}
