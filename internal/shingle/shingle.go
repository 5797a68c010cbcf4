// Package shingle implements k-shingling based document similarity
// (Broder et al., "Syntactic clustering of the web", 1997), which the
// study's soft-404 detector uses: a URL u is deemed broken when the
// text of the responses for u and a known-invalid sibling u' are more
// than 99% similar (§3).
//
// A document's shingle set is the set of all contiguous k-word windows
// of its token stream. Similarity between two documents is the Jaccard
// resemblance of their shingle sets.
package shingle

import (
	"hash/fnv"
	"strings"
	"unicode"
)

// DefaultK is the shingle width used by the soft-404 detector. Broder's
// original experiments used 10-word shingles; soft-404 bodies are short
// boilerplate pages, so a smaller window keeps short documents from
// degenerating to zero shingles.
const DefaultK = 4

// Set is a document's shingle set, represented by 64-bit FNV hashes of
// each k-word window. Hash collisions are possible but vanishingly
// unlikely to flip a 99%-similarity verdict.
type Set map[uint64]struct{}

// Tokenize splits text into lowercase word tokens, treating any run of
// non-letter/non-digit characters as a separator. HTML tags are crudely
// stripped first so that boilerplate markup does not dominate the
// token stream.
func Tokenize(text string) []string {
	return words(strings.ToLower(stripTags(text)))
}

// tokenizeLower is Tokenize of a text already lowered by
// strings.ToLower. Lowering maps rune by rune, leaves '<' and '>' alone
// and maps nothing onto them, so stripping tags after lowering keeps
// the runes that stripping before it would.
func tokenizeLower(lower string) []string {
	return words(stripTags(lower))
}

// words splits text at every run of non-letter/non-digit characters.
func words(text string) []string {
	return strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// stripTags removes anything between '<' and '>' — not a real HTML
// parser, but sufficient to keep markup out of similarity comparisons
// of simulated response bodies.
func stripTags(s string) string {
	if !strings.ContainsRune(s, '<') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	depth := 0
	for _, r := range s {
		switch {
		case r == '<':
			depth++
			b.WriteByte(' ')
		case r == '>':
			if depth > 0 {
				depth--
			}
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// New builds the shingle set of text with window width k. Documents
// shorter than k tokens contribute a single shingle covering all their
// tokens, so that two identical short documents still compare as equal.
func New(text string, k int) Set {
	return fromTokens(Tokenize(text), k)
}

// fromTokens is the shingle set of a token stream with window width k.
func fromTokens(tokens []string, k int) Set {
	if k <= 0 {
		k = DefaultK
	}
	set := make(Set)
	if len(tokens) == 0 {
		return set
	}
	if len(tokens) < k {
		set[hashWindow(tokens)] = struct{}{}
		return set
	}
	for i := 0; i+k <= len(tokens); i++ {
		set[hashWindow(tokens[i:i+k])] = struct{}{}
	}
	return set
}

func hashWindow(tokens []string) uint64 {
	h := fnv.New64a()
	for _, t := range tokens {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Resemblance returns the Jaccard similarity |A∩B| / |A∪B| in [0, 1].
// Two empty sets are defined to be identical (resemblance 1): two blank
// responses are the same page for soft-404 purposes.
func Resemblance(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for s := range small {
		if _, ok := large[s]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Similarity is a convenience that shingles both texts with DefaultK
// and returns their resemblance.
func Similarity(textA, textB string) float64 {
	return Resemblance(New(textA, DefaultK), New(textB, DefaultK))
}

// SimilarityLower is Similarity of two texts already lowered by
// strings.ToLower, for a caller that lowers each body once and reads
// the lowered copy in several tests.
func SimilarityLower(lowerA, lowerB string) float64 {
	return Resemblance(fromTokens(tokenizeLower(lowerA), DefaultK), fromTokens(tokenizeLower(lowerB), DefaultK))
}
