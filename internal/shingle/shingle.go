// Package shingle implements k-shingling based document similarity
// (Broder et al., "Syntactic clustering of the web", 1997), which the
// study's soft-404 detector uses: a URL u is deemed broken when the
// text of the responses for u and a known-invalid sibling u' are more
// than 99% similar (§3).
//
// A document's shingles are the FNV-1a hashes of its contiguous k-word
// windows, kept as a sorted hash slice; similarity is the Jaccard
// resemblance of two such sets, counted by merging the slices. An
// ASCII text is read in one pass that folds case, skips tags and
// hashes each window from the text's own bytes.
package shingle

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// DefaultK is the shingle width used by the soft-404 detector. Broder's
// original experiments used 10-word shingles; soft-404 bodies are short
// boilerplate pages, so a smaller window keeps short documents from
// degenerating to zero shingles.
const DefaultK = 4

// Similarity returns the Jaccard resemblance of the two texts'
// DefaultK-shingle sets, in [0, 1]. A text shorter than DefaultK tokens
// has one shingle of all its tokens; two texts without tokens are the
// same page (1). Hash collisions are vanishingly unlikely to flip a
// 99%-similarity verdict.
func Similarity(textA, textB string) float64 {
	// A simulated page has about 180 shingles: both sets fit here, and
	// a longer text spills to the heap.
	var stack [512]uint64
	all := appendShingles(stack[:0], textA)
	a, b := all[:len(all):len(all)], appendShingles(all, textB)[len(all):]
	slices.Sort(a)
	slices.Sort(b)
	a, b = slices.Compact(a), slices.Compact(b)
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if a[i] == b[j] {
			inter++
		}
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// appendShingles appends the hash of each DefaultK-token window of text
// to dst, unsorted. A token is a run of letters and digits, lower-cased.
// A text with a byte ≥ 0x80 is read lowered by strings.ToLower (which
// lowers U+212A KELVIN SIGN to 'k'); an ASCII one is read as is, A–Z
// folded while hashing. Tags are stripped only when the text holds a
// '<': '<' opens a tag and ends a token, '>' closes one, and a '>'
// outside any tag is dropped, joining its neighbours. Lowering maps no
// rune onto '<' or '>', so it does not move what stripping drops.
func appendShingles(dst []uint64, text string) []uint64 {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			text = strings.ToLower(text)
			break
		}
	}
	tags := strings.IndexByte(text, '<') >= 0

	var window [DefaultK][2]int // the last DefaultK tokens' [start, end), by n % DefaultK
	n := 0                      // tokens seen
	start, depth := -1, 0       // start of the open token, -1 between tokens
	closeToken := func(end int) {
		if start < 0 {
			return
		}
		window[n%DefaultK] = [2]int{start, end}
		n++
		start = -1
		if n >= DefaultK {
			dst = append(dst, hashWindow(text, &window, n-DefaultK, DefaultK))
		}
	}
	size := 1
	for i := 0; i < len(text); i += size {
		c, word := text[i], false
		size = 1
		switch {
		case !tags:
		case c == '<':
			depth++
			closeToken(i)
			continue
		case c == '>':
			depth = max(depth-1, 0)
			continue
		case depth > 0:
			continue
		}
		if c < utf8.RuneSelf {
			word = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		if !word {
			closeToken(i)
		} else if start < 0 {
			start = i
		}
	}
	closeToken(len(text))
	if 0 < n && n < DefaultK {
		dst = append(dst, hashWindow(text, &window, 0, n))
	}
	return dst
}

// hashWindow is the 64-bit FNV-1a hash of the k tokens from the
// first-th on, each followed by a zero byte: A–Z folded, and a '>'
// inside a token (one that joined its neighbours) skipped.
func hashWindow(text string, window *[DefaultK][2]int, first, k int) uint64 {
	h := uint64(14695981039346656037)
	for t := first; t < first+k; t++ {
		w := window[t%DefaultK]
		for _, c := range []byte(text[w[0]:w[1]]) {
			switch {
			case c == '>':
				continue
			case 'A' <= c && c <= 'Z':
				c += 'a' - 'A'
			}
			h = (h ^ uint64(c)) * 1099511628211
		}
		h *= 1099511628211 // the zero byte: h ^= 0, then multiply
	}
	return h
}
