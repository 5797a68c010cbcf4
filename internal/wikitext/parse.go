package wikitext

import (
	"strings"
)

// Parse parses wikitext into a Document. The parser is tolerant:
// malformed markup (unterminated templates, stray brackets) degrades
// to plain text rather than failing, because real Wikipedia dumps —
// and our simulated articles containing user typos — are messy.
func Parse(src string) *Document {
	p := &parser{src: src, lastClose: lastRefClose(src)}
	return p.parseUntil(false)
}

// Comment is an HTML comment (<!-- ... -->), preserved verbatim so
// editors' notes survive bot rewrites.
type Comment struct {
	Value string // inner text, without the delimiters
}

func (c *Comment) render(b *strings.Builder) {
	b.WriteString("<!--")
	b.WriteString(c.Value)
	b.WriteString("-->")
}

type parser struct {
	src string
	pos int
	// lastClose is where the last refClose in src starts (-1 if none):
	// a <ref> open tag ending after it has no closer and is text.
	lastClose int
}

// refClose ends a <ref> body; it is matched case-insensitively.
const refClose = "</ref>"

// lastRefClose returns the start of the last refClose in s, or -1.
func lastRefClose(s string) int {
	for i := len(s); i > 0; {
		if i = strings.LastIndexByte(s[:i], '<'); i >= 0 && len(s)-i >= len(refClose) &&
			strings.EqualFold(s[i:i+len(refClose)], refClose) {
			return i
		}
	}
	return -1
}

// parseUntil consumes nodes until end of input or, inside a <ref>
// body, until refClose, which is consumed as well.
//
// Every construct the parser recognises, and refClose, begins with
// '<', '{', '[' or a lowercase 'h' (bare URLs are matched
// case-sensitively), so the loop dispatches on the byte at pos and
// any other byte is prose. A construct that fails to parse degrades
// to text: its opening bytes are skipped, not retried as a shorter
// construct.
func (p *parser) parseUntil(inRef bool) *Document {
	doc := &Document{}
	textStart := p.pos
	flush := func(end int) {
		if end > textStart {
			doc.Nodes = append(doc.Nodes, &Text{Value: p.src[textStart:end]})
		}
	}
	// emit appends n, which began at start and ends at pos.
	emit := func(start int, n Node) {
		flush(start)
		doc.Nodes = append(doc.Nodes, n)
		textStart = p.pos
	}
	for p.pos < len(p.src) {
		start := p.pos
		switch p.src[start] {
		case '<':
			switch {
			case inRef && p.hasPrefixFold(refClose):
				flush(start)
				p.pos += len(refClose)
				return doc
			case p.hasPrefix("<!--"):
				emit(start, p.parseComment())
			case p.hasPrefixFold("<ref"):
				if r, ok := p.parseRef(); ok {
					emit(start, r)
				} else {
					p.pos = start + 4
				}
			default:
				p.pos++
			}
		case '{':
			if !p.hasPrefix("{{") {
				p.pos++
			} else if t, ok := p.parseTemplate(); ok {
				emit(start, t)
			} else {
				p.pos = start + 2 // skip the braces as text
			}
		case '[':
			if p.hasPrefix("[[") {
				if wl, ok := p.parseWikiLink(); ok {
					emit(start, wl)
				} else {
					p.pos = start + 2
				}
			} else if el, ok := p.parseExtLink(); ok {
				emit(start, el)
			} else {
				p.pos = start + 1
			}
		case 'h':
			if !p.hasPrefix("http://") && !p.hasPrefix("https://") {
				p.pos++
			} else if url := p.scanBareURL(); url != "" {
				emit(start, &ExtLink{URL: url, Bare: true})
			} else {
				p.pos = start + 4
			}
		default:
			p.pos++
		}
	}
	flush(p.pos)
	return doc
}

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) hasPrefixFold(s string) bool {
	rest := p.src[p.pos:]
	return len(rest) >= len(s) && strings.EqualFold(rest[:len(s)], s)
}

// parseTemplate parses {{name|params...}} starting at "{{". On failure
// it restores nothing; the caller resets pos.
func (p *parser) parseTemplate() (*Template, bool) {
	end := matchBraces(p.src, p.pos)
	if end < 0 {
		return nil, false
	}
	inner := p.src[p.pos+2 : end-2]
	p.pos = end
	// parts lives on the stack for templates of up to 8 parts, and the
	// parameters take one allocation of their final size.
	var buf [8]string
	parts := splitTop(buf[:0], inner, '|')
	t := &Template{Name: strings.TrimSpace(parts[0])}
	if t.Name == "" {
		return nil, false
	}
	if len(parts) > 1 {
		t.Params = make([]Param, len(parts)-1)
		for i, part := range parts[1:] {
			t.Params[i] = splitParam(part)
		}
	}
	return t, true
}

// pairAt reports whether s holds the doubled delimiter cc at i.
func pairAt(s string, i int, c byte) bool {
	return i+1 < len(s) && s[i] == c && s[i+1] == c
}

// splitParam splits "key=value" at the first top-level '=', treating
// the parameter as positional when none exists. MediaWiki semantics:
// the key is trimmed; the value keeps its exact text.
func splitParam(part string) Param {
	depth := 0
	for i := 0; i < len(part); i++ {
		switch {
		case pairAt(part, i, '{') || pairAt(part, i, '['):
			depth++
			i++
		case pairAt(part, i, '}') || pairAt(part, i, ']'):
			depth--
			i++
		case part[i] == '=' && depth == 0:
			key := strings.TrimSpace(part[:i])
			if key == "" {
				break
			}
			return Param{Key: key, Value: part[i+1:]}
		}
	}
	return Param{Value: part}
}

// matchBraces returns the index just past the "}}" matching the "{{"
// at start, or -1. Nested "{{"/"}}" pairs are balanced.
func matchBraces(s string, start int) int {
	depth := 0
	for i := start; i < len(s); i++ {
		switch {
		case pairAt(s, i, '{'):
			depth++
			i++
		case pairAt(s, i, '}'):
			depth--
			i++
			if depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// splitTop appends to parts the pieces of s split on sep at nesting
// depth zero with respect to {{...}} and [[...]] pairs.
func splitTop(parts []string, s string, sep byte) []string {
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch {
		case pairAt(s, i, '{') || pairAt(s, i, '['):
			depth++
			i++
		case pairAt(s, i, '}') || pairAt(s, i, ']'):
			depth--
			i++
		case s[i] == sep && depth == 0:
			parts = append(parts, s[last:i])
			last = i + 1
		}
	}
	parts = append(parts, s[last:])
	return parts
}

// parseWikiLink parses [[Target]] or [[Target|label]] at "[[".
func (p *parser) parseWikiLink() (*WikiLink, bool) {
	end := strings.Index(p.src[p.pos:], "]]")
	if end < 0 {
		return nil, false
	}
	inner := p.src[p.pos+2 : p.pos+end]
	if strings.Contains(inner, "[[") || strings.Contains(inner, "\n\n") {
		return nil, false
	}
	p.pos += end + 2
	target, label, _ := strings.Cut(inner, "|")
	return &WikiLink{Target: strings.TrimSpace(target), Label: label}, true
}

// parseExtLink parses [http://url optional label] at "[".
func (p *parser) parseExtLink() (*ExtLink, bool) {
	rest := p.src[p.pos+1:]
	if !strings.HasPrefix(rest, "http://") && !strings.HasPrefix(rest, "https://") {
		return nil, false
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 || strings.Contains(rest[:end], "\n") {
		return nil, false
	}
	inner := rest[:end]
	p.pos += 1 + end + 1
	url, label, _ := strings.Cut(inner, " ")
	return &ExtLink{URL: url, Label: strings.TrimSpace(label)}, true
}

// urlEndChars are characters that terminate a bare URL in wikitext.
const urlEndChars = " \t\n<>[]{}|\"'"

// scanBareURL consumes a bare URL starting at pos.
func (p *parser) scanBareURL() string {
	rest := p.src[p.pos:]
	end := strings.IndexAny(rest, urlEndChars)
	if end < 0 {
		end = len(rest)
	}
	// Trailing punctuation is prose, not URL — MediaWiki does the same.
	url := strings.TrimRight(rest[:end], ".,;:!?)")
	if len(url) <= len("http://") {
		return ""
	}
	p.pos += len(url)
	return url
}

// parseComment parses an HTML comment at "<!--". Unterminated
// comments run to end of input, as MediaWiki treats them.
func (p *parser) parseComment() *Comment {
	rest := p.src[p.pos+4:]
	end := strings.Index(rest, "-->")
	if end < 0 {
		p.pos = len(p.src)
		return &Comment{Value: rest}
	}
	p.pos += 4 + end + 3
	return &Comment{Value: rest[:end]}
}

// parseRef parses <ref>...</ref>, <ref name="x">...</ref>, or a
// self-closing <ref name="x" />. An open tag with no refClose anywhere
// after it is not a ref: rendering one would add the closer the source
// lacks, and the re-parse would then read different markup.
func (p *parser) parseRef() (*Ref, bool) {
	rest := p.src[p.pos:]
	gt := strings.IndexByte(rest, '>')
	if gt < 0 {
		return nil, false
	}
	openTag := rest[:gt+1]
	lower := strings.ToLower(openTag)
	if !strings.HasPrefix(lower, "<ref") {
		return nil, false
	}
	// The character after "<ref" must end the tag name.
	if len(openTag) > 4 && openTag[4] != ' ' && openTag[4] != '>' && openTag[4] != '/' && openTag[4] != '\t' {
		return nil, false
	}
	name := refNameAttr(openTag)
	if strings.HasSuffix(strings.TrimSpace(openTag[:len(openTag)-1]), "/") {
		// Self-closing.
		p.pos += gt + 1
		return &Ref{Name: name}, true
	}
	if p.lastClose < p.pos+gt+1 {
		return nil, false
	}
	p.pos += gt + 1
	body := p.parseUntil(true)
	return &Ref{Name: name, Body: body}, true
}

// refNameAttr extracts the name="..." (or name=x) attribute from a
// <ref ...> open tag. "name" is matched in place, case-insensitively:
// an offset into strings.ToLower(tag) can overrun tag, because lowering
// rewrites each invalid UTF-8 byte as the 3-byte U+FFFD.
func refNameAttr(tag string) string {
	i := 0
	for ; i+4 <= len(tag) && !strings.EqualFold(tag[i:i+4], "name"); i++ {
	}
	if i+4 > len(tag) {
		return ""
	}
	rest := tag[i+4:]
	rest = strings.TrimLeft(rest, " \t")
	if !strings.HasPrefix(rest, "=") {
		return ""
	}
	rest = strings.TrimLeft(rest[1:], " \t")
	if rest == "" {
		return ""
	}
	switch rest[0] {
	case '"', '\'':
		q := rest[0]
		if end := strings.IndexByte(rest[1:], q); end >= 0 {
			return rest[1 : 1+end]
		}
		return ""
	default:
		end := strings.IndexAny(rest, " \t/>")
		if end < 0 {
			end = len(rest)
		}
		return rest[:end]
	}
}
