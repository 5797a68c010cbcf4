package shingle

import (
	"hash/fnv"
	"maps"
	"strings"
	"testing"
	"unicode"
)

// The reference below is the package as it was before Similarity read
// each text in one pass: Tokenize builds token strings from a lowered,
// tag-stripped copy, New hashes each window into a map, and
// Resemblance counts the intersection by lookup. Similarity is held to
// it.

// Set is a document's shingle set, represented by 64-bit FNV hashes of
// each k-word window.
type Set map[uint64]struct{}

// Tokenize splits text into lowercase word tokens, treating any run of
// non-letter/non-digit characters as a separator. HTML tags are crudely
// stripped first.
func Tokenize(text string) []string {
	return words(strings.ToLower(stripTags(text)))
}

// tokenizeLower is Tokenize of a text already lowered by
// strings.ToLower.
func tokenizeLower(lower string) []string {
	return words(stripTags(lower))
}

// words splits text at every run of non-letter/non-digit characters.
func words(text string) []string {
	return strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// stripTags removes anything between '<' and '>'.
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
// tokens.
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
		set[hashTokens(tokens)] = struct{}{}
		return set
	}
	for i := 0; i+k <= len(tokens); i++ {
		set[hashTokens(tokens[i:i+k])] = struct{}{}
	}
	return set
}

func hashTokens(tokens []string) uint64 {
	h := fnv.New64a()
	for _, t := range tokens {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Resemblance returns the Jaccard similarity |A∩B| / |A∪B| in [0, 1].
// Two empty sets are identical (resemblance 1).
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

// similarityReference is Similarity as New and Resemblance computed it.
func similarityReference(textA, textB string) float64 {
	return Resemblance(New(textA, DefaultK), New(textB, DefaultK))
}

// SimilarityLower is the reference Similarity of two texts already
// lowered by strings.ToLower.
func SimilarityLower(lowerA, lowerB string) float64 {
	return Resemblance(fromTokens(tokenizeLower(lowerA), DefaultK), fromTokens(tokenizeLower(lowerB), DefaultK))
}

// shingleCases are texts on which a one-pass reader could part from
// the reference: tags nested, unclosed and stray, a '>' joining two
// words (and the text it then equals), fewer tokens than a window, upper case, runes that lower to
// ASCII (the Kelvin sign), runes that change length when lowered,
// invalid UTF-8, non-ASCII letters and digits, and repeated windows.
var shingleCases = []string{
	"",
	"   ",
	"<>",
	"ok",
	"OK",
	"a b c",
	"a b c d",
	"Hello, World! 123 foo-bar",
	"<html><body><p>only this text</p></body></html>",
	"a>b c d e",
	"x<y a>b c d e",
	"<<nested>> text>after < open",
	"KELVIN K ok KK k",
	"<i>z</i> a>b",
	"z ab",
	"Straße ß ẞ İstanbul ǅǈǋ ΣΑΣ",
	"\xff\xfeIS FOR SALE\xc3",
	"<b\xff>Sponsored Listings</b>related searches:",
	"٣٤ ١٢ abc ⅷ ²",
	"the the the the the the the the",
	"Sorry, we could not find that page. Sorry, we could not find that page.",
}

// shinglesOf is appendShingles' hashes of text as a reference Set.
func shinglesOf(text string) Set {
	set := make(Set)
	for _, h := range appendShingles(nil, text) {
		set[h] = struct{}{}
	}
	return set
}

// TestSimilarityMatchesReference: every case's shingle hashes are the
// map reference's, and on every pair of cases Similarity gives the
// reference's value, bit for bit.
func TestSimilarityMatchesReference(t *testing.T) {
	for _, a := range shingleCases {
		if got, want := shinglesOf(a), New(a, DefaultK); !maps.Equal(got, want) {
			t.Errorf("shingles of %q: %d hashes, reference %d, or different ones", a, len(got), len(want))
		}
		for _, b := range shingleCases {
			if got, want := Similarity(a, b), similarityReference(a, b); got != want {
				t.Errorf("Similarity(%q, %q) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

// TestSimilarityAllocs: two page-sized texts shingle without a heap
// allocation; the reference builds two maps and every token.
func TestSimilarityAllocs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ { // 200 tokens, as a simulated page has
		b.WriteString("<p>Word")
		b.WriteByte(byte('a' + i%26))
		b.WriteString(" text</p> ")
	}
	page, other := b.String(), b.String()+" tail"
	if n := testing.AllocsPerRun(20, func() { Similarity(page, other) }); n != 0 {
		t.Errorf("Similarity of two ASCII pages: %v allocations, want 0", n)
	}
}

// FuzzShingleDifferential: on arbitrary bytes, the shingle hashes are
// the map reference's, Similarity equals the reference's resemblance
// bit for bit, and it is symmetric.
func FuzzShingleDifferential(f *testing.F) {
	for i, a := range shingleCases {
		f.Add(a, shingleCases[(i+1)%len(shingleCases)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if !maps.Equal(shinglesOf(a), New(a, DefaultK)) {
			t.Fatalf("shingles of %q differ from the reference's", a)
		}
		got, want := Similarity(a, b), similarityReference(a, b)
		if got != want {
			t.Fatalf("Similarity(%q, %q) = %v, reference %v", a, b, got, want)
		}
		if rev := Similarity(b, a); rev != got {
			t.Fatalf("Similarity(%q, %q) = %v, reversed %v", a, b, got, rev)
		}
	})
}
