package wikitext

import (
	"strings"
)

// scanner is the grammar, written once: the first-byte dispatch loop
// (next) and the leaf scanners it calls. The digest (AppendCited,
// AppendDigest, and Apply's span scan) reads links and categories off
// the constructs it yields and builds nothing.
type scanner struct {
	src string
	pos int
	// closeAt is where the first refClose at or after the position last
	// searched from starts, -1 when there is none, or unsearched.
	closeAt int
}

const unsearched = -2

func newScanner(src string) scanner { return scanner{src: src, closeAt: unsearched} }

// tokKind names the construct a token is.
type tokKind uint8

const (
	tokEnd      tokKind = iota // end of input, or refClose ending a ref body
	tokComment                 // <!--a-->
	tokRef                     // <ref ...>, its body next, up to refClose
	tokRefSelf                 // <ref ... />
	tokTemplate                // {{a|b}}, b holding n parameters
	tokWikiLink                // [[a|b]]
	tokExtLink                 // [a b]
	tokBareURL                 // a, bare
)

// token is one construct: its kind, where it began (the prose before
// it ends there), and its text, in fields named by the kind.
type token struct {
	kind  tokKind
	start int
	a, b  string
	n     int
}

// refClose ends a <ref> body; it is matched case-insensitively.
const refClose = "</ref>"

// next returns the next construct at or after pos and leaves pos just
// past it. Every construct the grammar recognises, and refClose, begins
// with '<', '{', '[' or a lowercase 'h' (bare URLs are matched
// case-sensitively), so the loop dispatches on the byte at pos and
// skips any other byte as prose. A construct that fails to scan
// degrades to text: its opening bytes are skipped, not retried as a
// shorter construct. Inside a ref body (inRef), refClose ends the body:
// next consumes it and returns tokEnd, as at the end of input.
func (s *scanner) next(inRef bool) token {
	for s.pos < len(s.src) {
		start := s.pos
		switch s.src[start] {
		case '<':
			switch {
			case inRef && s.hasPrefixFold(refClose):
				s.pos += len(refClose)
				return token{start: start}
			case s.hasPrefix("<!--"):
				return token{kind: tokComment, start: start, a: s.comment()}
			case s.hasPrefixFold("<ref"):
				if selfClosing, ok := s.refOpen(); ok {
					kind := tokRef
					if selfClosing {
						kind = tokRefSelf
					}
					return token{kind: kind, start: start}
				}
				s.pos = start + 4
			default:
				s.pos++
			}
		case '{':
			if !s.hasPrefix("{{") {
				s.pos++
			} else if name, params, n, ok := s.template(); ok {
				return token{kind: tokTemplate, start: start, a: name, b: params, n: n}
			} else {
				s.pos = start + 2 // skip the braces as text
			}
		case '[':
			if s.hasPrefix("[[") {
				if target, label, ok := s.wikiLink(); ok {
					return token{kind: tokWikiLink, start: start, a: target, b: label}
				}
				s.pos = start + 2
			} else if url, label, ok := s.extLink(); ok {
				return token{kind: tokExtLink, start: start, a: url, b: label}
			} else {
				s.pos = start + 1
			}
		case 'h':
			if !s.hasPrefix("http://") && !s.hasPrefix("https://") {
				s.pos++
			} else if url := s.bareURL(); url != "" {
				return token{kind: tokBareURL, start: start, a: url}
			} else {
				s.pos = start + 4
			}
		default:
			s.pos = skipProse(s.src, start+1)
		}
	}
	return token{start: s.pos}
}

// skipProse returns the index of the first byte of s at or after i
// that can begin a construct: '<', '{', '[', or the 'h' of "http"; or
// len(s).
func skipProse(s string, i int) int {
	for ; ; i++ {
		if i = skipTo(s, i, &constructStart); i == len(s) || s[i] != 'h' || strings.HasPrefix(s[i:], "http") {
			return i
		}
	}
}

// The byte sets the scanners skip to: a construct's first byte; what
// the template scan tracks; what splitting its parameters tracks.
var (
	constructStart = byteSet("<{[h")
	templateDelims = byteSet("{}[]|")
	paramDelims    = byteSet("{}[]|=")
)

func byteSet(s string) (set [256]bool) {
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return set
}

// skipTo returns the index of the first byte of s at or after i in
// set, or len(s).
func skipTo(s string, i int, set *[256]bool) int {
	for i < len(s) && !set[s[i]] {
		i++
	}
	return i
}

func (s *scanner) hasPrefix(p string) bool {
	return strings.HasPrefix(s.src[s.pos:], p)
}

func (s *scanner) hasPrefixFold(p string) bool {
	rest := s.src[s.pos:]
	return len(rest) >= len(p) && strings.EqualFold(rest[:len(p)], p)
}

// template scans {{name|params}} at pos in one walk, to the "}}" that
// balances its "{{" (nested "{{"/"}}" pairs balanced), counting the
// '|' separators at nesting depth zero with respect to {{...}} and
// [[...]] pairs: params is the text after the first, holding n
// parameters (cutParam splits them). It fails, leaving pos, when the
// braces never balance or the trimmed name is empty.
func (s *scanner) template() (name, params string, n int, ok bool) {
	src := s.src
	// braces counts open "{{"; depth is the separators' nesting depth,
	// zero inside the template's own braces.
	braces, depth := 0, -1
	nameEnd := -1
	for i := s.pos; ; i++ {
		if i = skipTo(src, i, &templateDelims); i == len(src) {
			return "", "", 0, false
		}
		c := src[i]
		if c == '|' {
			if depth == 0 {
				if nameEnd < 0 {
					nameEnd = i
				}
				n++
			}
			continue
		}
		if i+1 == len(src) || src[i+1] != c {
			continue // a single bracket or brace is text
		}
		i++
		switch c {
		case '{':
			braces++
			depth++
		case '[':
			depth++
		case ']':
			depth--
		case '}':
			braces--
			depth--
			if braces > 0 {
				continue
			}
			name = src[s.pos+2 : i-1]
			if nameEnd >= 0 {
				name, params = src[s.pos+2:nameEnd], src[nameEnd+1:i-1]
			}
			if name = strings.TrimSpace(name); name == "" {
				return "", "", 0, false
			}
			s.pos = i + 1
			return name, params, n, true
		}
	}
}

// cutParam cuts the first parameter off params, a template's text
// after its name's '|', returning it and the text after its own '|'.
// The parameter ends at the first '|' at nesting depth zero with
// respect to {{...}} and [[...]] pairs, and splits "key=value" at its
// first '=' at depth zero with a non-blank key; with none it is
// positional. MediaWiki semantics: the key is trimmed; the value keeps
// its exact text.
func cutParam(params string) (p Param, rest string) {
	depth, eq := 0, -1
	i := 0
	for ; ; i++ {
		if i = skipTo(params, i, &paramDelims); i == len(params) {
			break
		}
		c := params[i]
		if c == '|' {
			if depth == 0 {
				rest = params[i+1:]
				break
			}
			continue
		}
		if c == '=' {
			if depth == 0 && eq < 0 && strings.TrimSpace(params[:i]) != "" {
				eq = i
			}
			continue
		}
		if i+1 < len(params) && params[i+1] == c {
			if c == '{' || c == '[' {
				depth++
			} else {
				depth--
			}
			i++
		}
	}
	part := params[:i]
	if eq < 0 {
		return Param{Value: part}, rest
	}
	return Param{Key: strings.TrimSpace(part[:eq]), Value: part[eq+1:]}, rest
}

// wikiLink scans [[Target]] or [[Target|label]] at "[[".
func (s *scanner) wikiLink() (target, label string, ok bool) {
	end := strings.Index(s.src[s.pos:], "]]")
	if end < 0 {
		return "", "", false
	}
	inner := s.src[s.pos+2 : s.pos+end]
	if strings.Contains(inner, "[[") || strings.Contains(inner, "\n\n") {
		return "", "", false
	}
	s.pos += end + 2
	target, label, _ = strings.Cut(inner, "|")
	return strings.TrimSpace(target), label, true
}

// extLink scans [http://url optional label] at "[".
func (s *scanner) extLink() (url, label string, ok bool) {
	rest := s.src[s.pos+1:]
	if !strings.HasPrefix(rest, "http://") && !strings.HasPrefix(rest, "https://") {
		return "", "", false
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 || strings.Contains(rest[:end], "\n") {
		return "", "", false
	}
	inner := rest[:end]
	s.pos += 1 + end + 1
	url, label, _ = strings.Cut(inner, " ")
	return url, strings.TrimSpace(label), true
}

// urlEndChars are characters that terminate a bare URL in wikitext.
const urlEndChars = " \t\n<>[]{}|\"'"

// bareURL scans a bare URL at pos, returning "" when what follows the
// scheme is too short to be one.
func (s *scanner) bareURL() string {
	rest := s.src[s.pos:]
	end := strings.IndexAny(rest, urlEndChars)
	if end < 0 {
		end = len(rest)
	}
	// Trailing punctuation is prose, not URL — MediaWiki does the same.
	url := strings.TrimRight(rest[:end], ".,;:!?)")
	if len(url) <= len("http://") {
		return ""
	}
	s.pos += len(url)
	return url
}

// comment scans an HTML comment at "<!--", returning its inner text.
// Unterminated comments run to end of input, as MediaWiki treats them.
func (s *scanner) comment() string {
	rest := s.src[s.pos+4:]
	end := strings.Index(rest, "-->")
	if end < 0 {
		s.pos = len(s.src)
		return rest
	}
	s.pos += 4 + end + 3
	return rest[:end]
}

// refOpen scans a <ref>, <ref name="x"> or self-closing
// <ref name="x" /> open tag at pos, which next has matched "<ref"
// case-insensitively. An open tag with no refClose anywhere after it
// is not a ref but text: a body it opened would never close, and a
// rendering of it would add the closer the source lacks.
func (s *scanner) refOpen() (selfClosing, ok bool) {
	rest := s.src[s.pos:]
	gt := strings.IndexByte(rest, '>')
	if gt < 0 {
		return false, false
	}
	openTag := rest[:gt+1]
	// The character after "<ref" must end the tag name.
	if len(openTag) > 4 && openTag[4] != ' ' && openTag[4] != '>' && openTag[4] != '/' && openTag[4] != '\t' {
		return false, false
	}
	selfClosing = strings.HasSuffix(strings.TrimSpace(openTag[:len(openTag)-1]), "/")
	if !selfClosing && !s.closerFrom(s.pos+gt+1) {
		return false, false
	}
	s.pos += gt + 1
	return selfClosing, true
}

// closerFrom reports whether a refClose starts at or after i. The
// scanner asks with i never decreasing (an open tag's end: the first
// '>' after its "<ref"), so the closers are searched for forward, over
// each stretch of src once, and only in documents with a ref.
func (s *scanner) closerFrom(i int) bool {
	if s.closeAt < i && s.closeAt != -1 {
		s.closeAt = indexRefClose(s.src, i)
	}
	return s.closeAt >= i
}

// indexRefClose returns the start of the first refClose in s at or
// after i, or -1.
func indexRefClose(s string, i int) int {
	for {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		if i += j; len(s)-i >= len(refClose) && strings.EqualFold(s[i:i+len(refClose)], refClose) {
			return i
		}
		i += 2
	}
}
