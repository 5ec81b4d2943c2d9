package nlp

import (
	"hash/fnv"
	"math"
	"strings"
	"unicode/utf8"
)

// Embedder produces deterministic word vectors. In place of the
// pretrained embeddings the paper uses ([40], Turian et al.), each word
// is hashed to a reproducible pseudo-random unit vector; identical
// words map to identical vectors across runs and machines. Models that
// want trainable embeddings seed their embedding tables from these
// vectors and fine-tune them jointly with the rest of the network.
type Embedder struct {
	dim int
}

// NewEmbedder returns an Embedder producing vectors of the given
// dimension (must be positive).
func NewEmbedder(dim int) *Embedder {
	if dim <= 0 {
		panic("nlp: embedding dimension must be positive")
	}
	return &Embedder{dim: dim}
}

// Dim returns the embedding dimension.
func (e *Embedder) Dim() int { return e.dim }

// Embed returns the word's vector. The vector is unit-norm and a pure
// function of the lowercased word.
func (e *Embedder) Embed(word string) []float64 {
	v := make([]float64, e.dim)
	// Derive a stream of pseudo-random values from FNV hashes of the
	// word with per-coordinate salts, mapped into (-1, 1).
	h := fnv.New64a()
	h.Write([]byte(word))
	base := h.Sum64()
	norm := 0.0
	state := base
	for i := range v {
		state = splitmix64(state)
		// Map to (-1,1) with a triangular-ish distribution.
		u := float64(state>>11) / float64(1<<53)
		v[i] = 2*u - 1
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		v[0] = 1
		return v
	}
	for i := range v {
		v[i] /= norm
	}
	return v
}

// splitmix64 advances a SplitMix64 PRNG state; used to expand one hash
// into a deterministic coordinate stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Vocab maps words to dense integer ids, reserving id 0 for unknown
// words and id 1 for padding. It is append-only: once frozen, unseen
// words map to the unknown id.
type Vocab struct {
	ids    map[string]int
	words  []string
	frozen bool
}

// Reserved vocabulary ids.
const (
	UnknownID = 0
	PadID     = 1
)

// NewVocab returns an empty vocabulary containing only the reserved
// entries.
func NewVocab() *Vocab {
	v := &Vocab{ids: map[string]int{}}
	v.words = []string{"<unk>", "<pad>"}
	v.ids["<unk>"] = UnknownID
	v.ids["<pad>"] = PadID
	return v
}

// ID returns the id for the word, adding it when the vocabulary is not
// frozen. Frozen vocabularies return UnknownID for unseen words.
func (v *Vocab) ID(word string) int {
	if id, ok := v.ids[word]; ok {
		return id
	}
	if v.frozen {
		return UnknownID
	}
	id := len(v.words)
	v.ids[word] = id
	v.words = append(v.words, word)
	return id
}

// IDLower returns ID(strings.ToLower(word)). Unlike that expression it
// does not allocate when the lowercased word is already known (or the
// vocabulary is frozen): ASCII words — nearly all of a corpus — are
// lowercased into a stack buffer for the lookup.
func (v *Vocab) IDLower(word string) int {
	var buf [64]byte
	if len(word) > len(buf) {
		return v.ID(strings.ToLower(word))
	}
	upper := false
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return v.ID(strings.ToLower(word))
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
			upper = true
		}
		buf[i] = c
	}
	if !upper {
		return v.ID(word)
	}
	if id, ok := v.ids[string(buf[:len(word)])]; ok || v.frozen {
		return id // UnknownID is the zero id
	}
	return v.ID(string(buf[:len(word)]))
}

// Word returns the word for an id, or "<unk>" for invalid ids.
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return v.words[UnknownID]
	}
	return v.words[id]
}

// Len returns the vocabulary size including reserved entries.
func (v *Vocab) Len() int { return len(v.words) }

// Freeze stops the vocabulary from growing; subsequent unseen words map
// to UnknownID.
func (v *Vocab) Freeze() { v.frozen = true }

// Frozen reports whether the vocabulary is frozen.
func (v *Vocab) Frozen() bool { return v.frozen }
