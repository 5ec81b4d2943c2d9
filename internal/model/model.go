// Package model implements Fonduer's discriminative models: the
// multimodal recurrent network of Section 4.2 (a bidirectional LSTM
// with word attention over each mention's sentence, with candidate
// markers, whose last layer combines the textual representation with
// the extended feature library), and the baselines Section 5.3.3
// compares against — a text-only Bi-LSTM with attention, a human-tuned
// sparse feature model, an SRV-style HTML-feature learner, and the
// document-level RNN.
package model

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/candidates"
	"repro/internal/datamodel"
	"repro/internal/neural"
	"repro/internal/nlp"
)

// Example is one training or inference instance: a candidate, its
// active extended-feature columns, and (for training) the marginal
// probability produced by the generative label model.
type Example struct {
	Cand        *candidates.Candidate
	SparseFeats []int
	// Marginal is the noise-aware training target P(y = true).
	Marginal float64
}

// The network's fixed dimensions, the mention context window and the
// learning-rate decay: one setting each for every variant.
const (
	embedDim      = 16 // word-embedding dimension
	hidDim        = 16 // per-direction LSTM hidden size
	attDim        = 16 // attention space dimension
	maxSentTokens = 24 // tokens per mention context window
	// lrDecay divides the learning rate by (1 + lrDecay*epoch),
	// damping late-training oscillation.
	lrDecay = 0.15
)

// Config selects the model variant and its dimensions.
type Config struct {
	// NumFeatures is the extended-feature space size (required when
	// UseSparse).
	NumFeatures int
	// NumMentions is the relation arity (required when UseText).
	NumMentions int

	// UseText enables the per-mention Bi-LSTM + attention encoder.
	UseText bool
	// UseSparse enables the extended feature library in the last layer.
	UseSparse bool
	// DocLevel replaces the per-mention encoder with one Bi-LSTM over
	// the whole document sequence (the Table 6 baseline).
	DocLevel bool
	// UseMaxPool replaces attention with max pooling (ablation).
	UseMaxPool bool

	// MaxDocTokens caps the document-level sequence (default 400).
	MaxDocTokens int
	// Seed makes initialization and shuffling deterministic.
	Seed int64
}

func (c *Config) defaults() {
	if c.MaxDocTokens <= 0 {
		c.MaxDocTokens = 400
	}
}

// Model is a trainable candidate classifier.
type Model struct {
	cfg   Config
	vocab *nlp.Vocab
	emb   *neural.Embedding
	bi    *neural.BiLSTM
	att   *neural.Attention
	// headText maps the concatenated mention representations to the
	// two class logits; headSparse adds the feature-library logits.
	headText   *neural.Linear
	headSparse *neural.Mat
	bias       *neural.Mat
	params     neural.Params
	rng        *rand.Rand
}

// New constructs a model for the given configuration and candidate
// sample (used to build the vocabulary before training).
func New(cfg Config, sample []Example) *Model {
	cfg.defaults()
	m := &Model{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	m.vocab = nlp.NewVocab()
	if cfg.UseText || cfg.DocLevel {
		var scratch seqIDs
		for _, ex := range sample {
			m.encode(&scratch, ex.Cand) // admits the tokens, in sequence order
		}
		m.vocab.Freeze()
		hashed := nlp.NewEmbedder(embedDim)
		m.emb = neural.NewEmbedding(m.vocab.Len(), embedDim, m.rng, func(id int) []float64 {
			return hashed.Embed(m.vocab.Word(id))
		})
		m.bi = neural.NewBiLSTM(embedDim, hidDim, m.rng)
		m.att = neural.NewAttention(m.bi.OutDim(), attDim, m.rng)
		textDim := attDim * cfg.NumMentions
		if cfg.DocLevel {
			textDim = attDim
		}
		m.headText = neural.NewLinear(textDim, 2, m.rng)
		m.params = append(m.params, m.emb.Params()...)
		m.params = append(m.params, m.bi.Params()...)
		m.params = append(m.params, m.att.Params()...)
		m.params = append(m.params, m.headText.Params()...)
	}
	if cfg.UseSparse {
		m.headSparse = neural.NewMat(2, cfg.NumFeatures)
		m.params = append(m.params, m.headSparse)
	}
	m.bias = neural.NewMat(2, 1)
	m.params = append(m.params, m.bias)
	return m
}

// seqIDs is one candidate's token sequences as vocabulary ids,
// flattened: sequence k is ids[ends[k-1]:ends[k]]. The per-mention
// model has one sequence per mention, the document-level model one.
type seqIDs struct {
	ids  []int
	ends []int
}

func (s *seqIDs) seq(k int) []int {
	lo := 0
	if k > 0 {
		lo = s.ends[k-1]
	}
	return s.ids[lo:s.ends[k]]
}

// endSeq closes the sequence being appended; an empty one becomes a
// single padding token.
func (s *seqIDs) endSeq() {
	start := 0
	if n := len(s.ends); n > 0 {
		start = s.ends[n-1]
	}
	if len(s.ids) == start {
		s.ids = append(s.ids, nlp.PadID)
	}
	s.ends = append(s.ends, len(s.ids))
}

// encode replaces dst's contents with the candidate's token sequences.
// It is the one place tokens meet the vocabulary: New calls it while
// the vocabulary is still growing (ids are admitted in sequence order),
// Train once per example and inference once per candidate afterwards,
// so a forward pass never touches a string.
func (m *Model) encode(dst *seqIDs, c *candidates.Candidate) {
	dst.ids, dst.ends = dst.ids[:0], dst.ends[:0]
	switch {
	case m.cfg.DocLevel:
		for _, tok := range docTokens(c, m.cfg.MaxDocTokens) {
			dst.ids = append(dst.ids, m.vocab.ID(tok))
		}
		dst.endSeq()
	case m.cfg.UseText:
		for i := range c.Mentions {
			dst.ids = m.appendMentionIDs(dst.ids, c, i)
			dst.endSeq()
		}
	}
}

// appendMentionIDs appends the lowercased context window of mention i
// with the paper's candidate markers ([[i ... i]]) inserted around the
// mention to draw the network's attention to the candidate itself.
func (m *Model) appendMentionIDs(dst []int, c *candidates.Candidate, i int) []int {
	sp := c.Mentions[i].Span
	words := sp.Sentence.Words
	// Window around the span.
	half := (maxSentTokens - sp.Len() - 2) / 2
	if half < 1 {
		half = 1
	}
	lo := sp.Start - half
	if lo < 0 {
		lo = 0
	}
	hi := sp.End + half
	if hi > len(words) {
		hi = len(words)
	}
	for k := lo; k < hi; k++ {
		if k == sp.Start {
			dst = append(dst, m.vocab.ID(marker(i, true)))
		}
		dst = append(dst, m.vocab.IDLower(words[k]))
		if k == sp.End-1 {
			dst = append(dst, m.vocab.ID(marker(i, false)))
		}
	}
	return dst
}

// markerTokens holds the marker strings of the first mentions, so that
// encoding a candidate of ordinary arity allocates nothing.
var markerTokens = func() (t [8]struct{ open, close string }) {
	for i := range t {
		t[i].open, t[i].close = newMarker(i, true), newMarker(i, false)
	}
	return t
}()

func marker(i int, open bool) string {
	if i >= len(markerTokens) {
		return newMarker(i, open)
	}
	if open {
		return markerTokens[i].open
	}
	return markerTokens[i].close
}

func newMarker(i int, open bool) string {
	if open {
		return "[[" + string(rune('0'+i))
	}
	return string(rune('0'+i)) + "]]"
}

// docTokens returns the whole document's lowercased word sequence with
// markers at the mention positions, capped to maxTokens centered on
// the first mention (the document-level RNN's input).
func docTokens(c *candidates.Candidate, maxTokens int) []string {
	doc := c.Doc()
	type markerPos struct {
		sent  int
		word  int
		token string
	}
	var markers []markerPos
	for i, men := range c.Mentions {
		markers = append(markers,
			markerPos{men.Span.Sentence.Position, men.Span.Start, marker(i, true)},
			markerPos{men.Span.Sentence.Position, men.Span.End, marker(i, false)})
	}
	var out []string
	for _, s := range doc.Sentences() {
		for w := 0; w <= len(s.Words); w++ {
			for _, mk := range markers {
				if mk.sent == s.Position && mk.word == w {
					out = append(out, mk.token)
				}
			}
			if w < len(s.Words) {
				out = append(out, strings.ToLower(s.Words[w]))
			}
		}
	}
	if len(out) > maxTokens {
		// Keep a window starting at the first marker.
		first := 0
		for i, tok := range out {
			if strings.HasPrefix(tok, "[[") {
				first = i
				break
			}
		}
		lo := first - maxTokens/4
		if lo < 0 {
			lo = 0
		}
		hi := lo + maxTokens
		if hi > len(out) {
			hi = len(out)
			lo = hi - maxTokens
		}
		out = out[lo:hi]
	}
	return out
}

// forward builds the logits of one encoded candidate on a reset tape.
// memo, when non-nil, supplies the mention encodings it holds and
// records the ones it does not; only a forward-only tape takes one.
func (m *Model) forward(t *neural.Tape, seqs *seqIDs, feats []int, memo *encodingMemo) *neural.Vec {
	logits := t.AsVec(m.bias)
	if m.cfg.DocLevel {
		logits = t.Add(logits, m.headText.Apply(t, m.encodeSeq(t, seqs.seq(0))))
	} else if m.cfg.UseText {
		reps := t.Vecs(len(seqs.ends))
		for i := range reps {
			reps[i] = m.encodeMention(t, seqs.seq(i), memo)
		}
		logits = t.Add(logits, m.headText.Apply(t, t.Concat(reps...)))
	}
	if m.cfg.UseSparse {
		logits = t.Add(logits, t.SparseLinear(m.headSparse, feats))
	}
	return logits
}

// encodeSeq embeds a token-id sequence, runs the Bi-LSTM, and
// aggregates with attention (or max pooling in the ablation variant).
func (m *Model) encodeSeq(t *neural.Tape, ids []int) *neural.Vec {
	xs := t.Vecs(len(ids))
	for i, id := range ids {
		xs[i] = m.emb.Lookup(t, id)
	}
	hs := m.bi.Run(t, xs)
	if m.cfg.UseMaxPool {
		// Project pooled hidden state into the attention dimension so
		// head shapes stay identical across the ablation.
		pooled := neural.MaxPool(t, hs)
		return t.Tanh(t.Add(t.MatVec(m.att.Ww, pooled), t.AsVec(m.att.Bw)))
	}
	agg, _ := m.att.Apply(t, hs)
	return agg
}

// encodeMention is encodeSeq through a memo: a sequence the memo holds
// enters the graph as a constant leaf of the floats encodeSeq produced
// for it earlier, and any other sequence is encoded and recorded.
func (m *Model) encodeMention(t *neural.Tape, ids []int, memo *encodingMemo) *neural.Vec {
	if memo == nil {
		return m.encodeSeq(t, ids)
	}
	if enc, ok := memo.lookup(ids); ok {
		return t.Const(enc)
	}
	v := m.encodeSeq(t, ids)
	memo.add(v.V)
	return v
}

// encodingMemo maps a mention's token-id sequence to the encoding
// encodeSeq produced for it, for the candidates of one document under
// one model. The key is the encoder's whole input, and under frozen
// weights an encoding is a pure function of that input, so a hit is
// exact by construction: its floats are the graph's, copied bit for
// bit. The key carries the candidate markers, so one span used as
// argument 0 and as argument 1 is two entries.
type encodingMemo struct {
	doc *datamodel.Document
	// at maps a key (the ids, uvarint-encoded) to the encoding's offset
	// in enc; every encoding is dim floats long.
	at  map[string]int
	enc []float64
	dim int
	// key is the key lookup built last, which add records.
	key []byte
	// added counts the encodings recorded since the memo was last
	// emptied by PredictProbs.
	added int
}

// reset empties the memo for the candidates of doc.
func (mm *encodingMemo) reset(doc *datamodel.Document) {
	mm.doc = doc
	clear(mm.at)
	mm.enc = mm.enc[:0]
}

func (mm *encodingMemo) lookup(ids []int) ([]float64, bool) {
	mm.key = mm.key[:0]
	for _, id := range ids {
		mm.key = binary.AppendUvarint(mm.key, uint64(id))
	}
	off, ok := mm.at[string(mm.key)]
	if !ok {
		return nil, false
	}
	return mm.enc[off : off+mm.dim], true
}

// add records enc under the key of the lookup that missed. The floats
// are copied: the graph's own storage dies with the tape's next Reset.
func (mm *encodingMemo) add(enc []float64) {
	mm.dim = len(enc)
	mm.at[string(mm.key)] = len(mm.enc)
	mm.enc = append(mm.enc, enc...)
	mm.added++
}

// TrainOptions configure Train.
//
// Zero-value sentinels: numeric fields treat 0 as "use the default"
// (documented per field).
type TrainOptions struct {
	Epochs int     // default 10
	LR     float64 // default 0.01
	Clip   float64 // gradient clip (default 5)
	// L2 is the weight-decay coefficient (default 0, off). Weight
	// decay keeps rare identity features (e.g. a part number seen in
	// one document) from dominating generic multimodal features.
	L2 float64
	// Workers is ignored: training is one Adam step per example, on the
	// calling goroutine.
	//
	// Deprecated: kept only so existing callers compile; it is to be
	// deleted.
	Workers int
}

func (o *TrainOptions) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 10
	}
	if o.LR <= 0 {
		o.LR = 0.01
	}
	if o.Clip <= 0 {
		o.Clip = 5
	}
}

// TrainStats reports training cost, for the Table 6 runtime comparison.
type TrainStats struct {
	Epochs        int
	FinalLoss     float64
	SecsPerEpoch  float64
	TotalDuration time.Duration
}

// trainStep is the scratch of one training step, reused by every step:
// the tape and the part of the sparse parameters' gradient the step's
// example wrote.
type trainStep struct {
	tape *neural.Tape
	// rows and cols are the embedding rows and feature-head columns the
	// example read: outside them its gradient is +0.
	rows, cols []int
	// sparse names the model's embedding table and feature head, the
	// parameters whose gradient an example writes only in part, with Idx
	// at rows and cols.
	sparse []neural.Sparse
}

// touch records the embedding rows and feature-head columns the
// example read (its token sequences and features), and points the
// sparse entries at them.
func (s *trainStep) touch(m *Model, seq *seqIDs, feats []int) {
	if m.emb != nil {
		s.rows = m.emb.Rows(s.rows, seq.ids)
	}
	if m.headSparse != nil {
		s.cols = neural.SparseCols(s.cols, m.headSparse, feats)
	}
	for j := range s.sparse {
		s.sparse[j].Idx = s.rows
		if s.sparse[j].Cols {
			s.sparse[j].Idx = s.cols
		}
	}
}

// sparseParams returns a Sparse entry, with no indices yet, for each of
// the model's parameters whose gradient one example writes only in
// part: the embedding table (the rows of its tokens) and the feature
// head (the columns of its features).
func (m *Model) sparseParams() []neural.Sparse {
	var sp []neural.Sparse
	if m.emb != nil {
		sp = append(sp, neural.Sparse{M: m.emb.Table})
	}
	if m.headSparse != nil {
		sp = append(sp, neural.Sparse{M: m.headSparse, Cols: true})
	}
	return sp
}

// Train fits the model with Adam on the noise-aware cross-entropy
// against the examples' marginals, one step per example. Each example's
// token sequences are encoded to vocabulary ids once; each epoch
// shuffles the example order (seeded rng), and every step runs the
// example forward and backward on one reused tape, clips the gradient
// to opts.Clip and applies one Adam update with the clip factor folded
// in. A step reads the whole parameter set once, in Adam; the clip norm
// and the zeroing of the gradient visit only the dense parameters and
// the embedding rows and feature columns the example read, since every
// other gradient is +0. The trajectory is a function of the seed and
// the examples alone.
func (m *Model) Train(examples []Example, opts TrainOptions) TrainStats {
	opts.defaults()
	optim := neural.NewAdam(opts.LR)
	optim.WeightDecay = opts.L2
	start := time.Now()
	seqs := make([]seqIDs, len(examples))
	order := make([]int, len(examples))
	var scratch seqIDs
	for i := range examples {
		m.encode(&scratch, examples[i].Cand)
		seqs[i] = seqIDs{ids: slices.Clone(scratch.ids), ends: slices.Clone(scratch.ends)}
		order[i] = i
	}
	s := trainStep{tape: neural.NewTape(), sparse: m.sparseParams()}
	// Steps zero only what they wrote, so they start from a zero gradient.
	m.params.ZeroGrad()
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		optim.LR = opts.LR / (1 + lrDecay*float64(epoch))
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, i := range order {
			s.tape.Reset()
			logits := m.forward(s.tape, &seqs[i], examples[i].SparseFeats, nil)
			loss, node := neural.NoiseAwareCE(s.tape, logits, examples[i].Marginal)
			total += loss
			s.tape.Backward(node)
			s.touch(m, &seqs[i], examples[i].SparseFeats)
			optim.StepScaled(m.params, m.params.ClipScale(opts.Clip, s.sparse...))
			m.params.ZeroGrad(s.sparse...)
		}
		if len(examples) > 0 {
			lastLoss = total / float64(len(examples))
		}
	}
	dur := time.Since(start)
	st := TrainStats{Epochs: opts.Epochs, FinalLoss: lastLoss, TotalDuration: dur}
	if opts.Epochs > 0 {
		st.SecsPerEpoch = dur.Seconds() / float64(opts.Epochs)
	}
	return st
}

// inference is the scratch of one PredictProb or PredictProbs call: a
// forward-only tape, the candidate's encoded sequences and the memo of
// one document's mention encodings. Instances are recycled through
// inferencePool, so a warm call allocates nothing (PredictProbs: one
// memo key per distinct sequence) and the memory held is bounded by the
// callers in flight, each sized by the largest candidate and the
// largest document it has scored.
type inference struct {
	tape *neural.Tape
	seqs seqIDs
	memo encodingMemo
}

var inferencePool = sync.Pool{New: func() any {
	return &inference{tape: neural.NewForwardTape(), memo: encodingMemo{at: map[string]int{}}}
}}

// PredictProb returns the marginal probability that the candidate is a
// true relation mention. It runs forward-only and never writes to the
// model, so any number of goroutines may call it on one model.
func (m *Model) PredictProb(ex Example) float64 {
	inf := inferencePool.Get().(*inference)
	p := m.predict(inf, ex, nil)
	inferencePool.Put(inf)
	return p
}

// PredictProbs sets probs[i] to PredictProb(exs[i]), bit for bit, for
// every example (probs must be at least as long as exs), and returns how
// many token sequences it ran through the encoder. Within each run of
// consecutive examples from one document, the per-mention model encodes
// each distinct mention context once: a mention recurs across the
// candidates it takes part in, so callers should pass a document's
// candidates together, in corpus order. The document-level model has
// one sequence per candidate and encodes every one. Like PredictProb it
// is read-only, so any number of goroutines may call it on one model.
func (m *Model) PredictProbs(exs []Example, probs []float64) (encoded int) {
	inf := inferencePool.Get().(*inference)
	var memo *encodingMemo
	if m.cfg.UseText && !m.cfg.DocLevel {
		memo = &inf.memo
		memo.added = 0
	}
	for i, ex := range exs {
		if memo != nil {
			if doc := ex.Cand.Doc(); i == 0 || doc != memo.doc {
				memo.reset(doc)
			}
		}
		probs[i] = m.predict(inf, ex, memo)
		if memo == nil {
			encoded += len(inf.seqs.ends)
		}
	}
	if memo != nil {
		encoded = memo.added
		memo.doc = nil // a pooled scratch pins no document
	}
	inferencePool.Put(inf)
	return encoded
}

// predict scores one candidate on inf's tape and resets the tape, which
// also drops its views of this model's weights.
func (m *Model) predict(inf *inference, ex Example, memo *encodingMemo) float64 {
	m.encode(&inf.seqs, ex.Cand)
	var probs [2]float64
	neural.SoftmaxProbs(probs[:], m.forward(inf.tape, &inf.seqs, ex.SparseFeats, memo).V)
	inf.tape.Reset()
	return probs[1]
}

// Classify applies the user-specified threshold over the output
// marginals (Section 3.2, Classification).
func (m *Model) Classify(ex Example, threshold float64) bool {
	return m.PredictProb(ex) > threshold
}
