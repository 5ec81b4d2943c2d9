// Package nlp provides the text preprocessing substrate Fonduer's data
// model depends on: tokenization, sentence splitting, a rule-based
// lemmatizer, a lexicon-backed part-of-speech tagger, a lightweight
// named-entity tagger, and deterministic hashed word embeddings.
//
// The paper delegates this stage to standard NLP toolkits; this package
// is a from-scratch, stdlib-only equivalent tuned for the token-level
// attributes the rest of the pipeline consumes (lemmas, POS tags, NER
// tags, n-grams).
package nlp

import "unicode"

// Tokenize splits raw text into word tokens. Punctuation is split into
// separate tokens, except that decimal numbers ("1.5"), intra-word
// hyphens ("collector-emitter"), alphanumeric part codes ("SMBT3904"),
// and ellipses ("...") are kept intact.
func Tokenize(text string) []string {
	var tokens []string
	runes := []rune(text)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isWordRune(r):
			j := i + 1
			for j < len(runes) && wordContinues(runes, j) {
				j++
			}
			tokens = append(tokens, string(runes[i:j]))
			i = j
		case r == '.' && i+1 < len(runes) && runes[i+1] == '.':
			// Ellipsis of any length becomes one "..." token.
			j := i
			for j < len(runes) && runes[j] == '.' {
				j++
			}
			tokens = append(tokens, "...")
			i = j
		default:
			tokens = append(tokens, string(r))
			i++
		}
	}
	return tokens
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// wordContinues reports whether position j extends the word started
// earlier: letters and digits always do; '.', ',', '-', '_' do when
// sandwiched between word runes (decimals, codes, hyphenations).
func wordContinues(runes []rune, j int) bool {
	r := runes[j]
	if isWordRune(r) {
		return true
	}
	if r == '.' || r == ',' || r == '-' || r == '_' {
		return j+1 < len(runes) && isWordRune(runes[j+1]) && isWordRune(runes[j-1])
	}
	return false
}

// sentenceEnders terminate a sentence when followed by whitespace and
// an uppercase letter, digit-start token, or end of text.
func isSentenceEnder(tok string) bool {
	return tok == "." || tok == "!" || tok == "?"
}

// SplitSentences tokenizes text and groups the tokens into sentences.
// A sentence boundary is a '.', '!' or '?' token; trailing terminators
// stay attached to their sentence. Abbreviation handling is minimal by
// design: the synthetic corpora use conventional punctuation.
func SplitSentences(text string) [][]string {
	tokens := Tokenize(text)
	var out [][]string
	var cur []string
	for _, tok := range tokens {
		cur = append(cur, tok)
		if isSentenceEnder(tok) {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}
