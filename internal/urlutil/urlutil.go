// Package urlutil provides the URL manipulation primitives the study
// relies on throughout §2–§5 of the paper:
//
//   - hostname extraction exactly as the paper defines it ("the portion
//     of the URL between the protocol and the first '/' thereafter", §2.4)
//   - registrable-domain mapping via the Public Suffix List
//   - directory prefixes ("share the same URL prefix until the last '/'",
//     §4.2 and §5.2)
//   - SURT-style canonicalization used by the archive's CDX index
//   - Levenshtein edit distance for the §5.2 typo analysis:
//     EditDistance is the full matrix; EditDistanceAtMost answers
//     "within k?" from a band of 2k+1 cells per row, without
//     allocating, and is what the per-candidate typo probe calls
//   - query-parameter decomposition for the §5.2 "unbounded query
//     arguments" analysis
package urlutil

import (
	"net/url"
	"sort"
	"strings"

	"permadead/internal/psl"
)

// Hostname extracts the hostname from rawURL the way the paper does:
// the portion between the protocol and the first '/' thereafter. Any
// port and userinfo are stripped; the scheme is case-insensitive. It
// returns "" when rawURL has no http(s) scheme or no host.
func Hostname(rawURL string) string {
	rest, ok := stripScheme(rawURL)
	if !ok {
		return ""
	}
	// Cut at the first '/', '?' or '#'.
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		rest = rest[:i]
	}
	// Strip userinfo and port.
	if i := strings.LastIndexByte(rest, '@'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		rest = rest[:i]
	}
	return strings.ToLower(strings.TrimSuffix(rest, "."))
}

// stripScheme removes a leading http:// or https:// (ASCII
// case-insensitive) and reports whether one was present. Only the
// scheme's own bytes are compared: every lookup key goes through here.
func stripScheme(rawURL string) (string, bool) {
	s := strings.TrimSpace(rawURL)
	switch {
	case hasPrefixFold(s, "http://"):
		return s[len("http://"):], true
	case hasPrefixFold(s, "https://"):
		return s[len("https://"):], true
	}
	return "", false
}

// hasPrefixFold reports whether s begins with prefix (lowercase ASCII),
// folding only A–Z in s.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// Domain maps rawURL's hostname to its registrable domain using the
// embedded Public Suffix List. It falls back to the hostname itself
// when the hostname is a bare public suffix or an IP-like string.
func Domain(rawURL string) string {
	host := Hostname(rawURL)
	if host == "" {
		return ""
	}
	if d := psl.Default().RegistrableDomain(host); d != "" {
		return d
	}
	return host
}

// DomainOfHost maps a bare hostname to its registrable domain.
func DomainOfHost(host string) string {
	if d := psl.Default().RegistrableDomain(host); d != "" {
		return d
	}
	return strings.ToLower(host)
}

// Directory returns the URL prefix up to and including the last '/' of
// the path, which the paper uses as the unit of the §4.2 sibling check
// and the §5.2 directory-level coverage analysis. Query string and
// fragment are excluded. For a URL with an empty path the directory is
// the host root ("http://host/").
//
// A URL in Normalize's form is cut in place, at the last '/' before
// any query; anything else goes through net/url.
func Directory(rawURL string) string {
	if isNormalized(rawURL) {
		path, _, _ := strings.Cut(rawURL, "?")
		return rawURL[:strings.LastIndexByte(path, '/')+1]
	}
	return directoryParsed(rawURL)
}

// directoryParsed is Directory for arbitrary input.
func directoryParsed(rawURL string) string {
	u, err := url.Parse(strings.TrimSpace(rawURL))
	if err != nil || u.Host == "" {
		// Fall back to byte-level handling for unparseable URLs; the
		// dataset contains typos, so this path is exercised for real.
		return rawDirectory(rawURL)
	}
	path := u.EscapedPath()
	if path == "" {
		path = "/"
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[:i+1]
	}
	return strings.ToLower(u.Scheme) + "://" + strings.ToLower(u.Host) + path
}

func rawDirectory(rawURL string) string {
	rest, ok := stripScheme(rawURL)
	if !ok {
		return ""
	}
	// stripScheme matched, so byte 4 is the ':' of "http:" or an 's'.
	scheme := "http"
	if strings.TrimSpace(rawURL)[4] != ':' {
		scheme = "https"
	}
	// Drop query/fragment.
	if i := strings.IndexAny(rest, "?#"); i >= 0 {
		rest = rest[:i]
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return scheme + "://" + strings.ToLower(rest) + "/"
	}
	host := strings.ToLower(rest[:slash])
	path := rest[slash:]
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[:i+1]
	}
	return scheme + "://" + host + path
}

// ReplaceLastSegment rebuilds rawURL with its last path segment (and
// query) replaced by segment. Used by the soft-404 probe to construct
// the known-invalid sibling URL u'.
func ReplaceLastSegment(rawURL, segment string) string {
	dir := Directory(rawURL)
	if dir == "" {
		return ""
	}
	return dir + segment
}

// Normalize performs light canonicalization for URL identity: lowercase
// scheme and host, strip default ports, strip fragments, ensure a path.
// It deliberately preserves the query string byte-for-byte — the §5.2
// analysis depends on parameter order being significant.
//
// Nearly every URL the pipeline names is already in that form, and
// every archive lookup and response-cache key starts here, so such
// input is recognised by one byte scan and returned as is; everything
// else goes through net/url.
func Normalize(rawURL string) string {
	if isNormalized(rawURL) {
		return rawURL
	}
	return normalizeParsed(rawURL)
}

// isNormalized reports whether s is certainly its own Normalize: a
// lowercase http(s) scheme, a host of [a-z0-9.-] (so no port, userinfo
// or IP literal), a non-empty path of unreserved bytes and '/', then
// optionally '?' and graphic ASCII without '#'. It errs towards false
// — an escape, a space or a capital in the host means net/url decides.
func isNormalized(s string) bool {
	var i int
	switch {
	case strings.HasPrefix(s, "http://"):
		i = len("http://")
	case strings.HasPrefix(s, "https://"):
		i = len("https://")
	default:
		return false
	}
	hostStart := i
	for ; i < len(s) && s[i] != '/'; i++ {
		if c := s[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return false
		}
	}
	if i == hostStart || i == len(s) {
		return false
	}
	for ; i < len(s) && s[i] != '?'; i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '/' || c == '-' || c == '.' || c == '_' || c == '~') {
			return false
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '#' {
			return false
		}
	}
	return true
}

// normalizeParsed is Normalize for arbitrary input.
func normalizeParsed(rawURL string) string {
	u, err := url.Parse(strings.TrimSpace(rawURL))
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return strings.TrimSpace(rawURL)
	}
	u.Scheme = strings.ToLower(u.Scheme)
	u.Host = strings.ToLower(u.Host)
	if h, p, ok := strings.Cut(u.Host, ":"); ok {
		if (u.Scheme == "http" && p == "80") || (u.Scheme == "https" && p == "443") {
			u.Host = h
		}
	}
	u.Fragment = ""
	if u.Path == "" {
		u.Path = "/"
	}
	// Dropping the fragment can expose a query that ends in space
	// ("http://h?q #f"); trimmed here, or a second pass would trim it.
	return strings.TrimSpace(u.String())
}

// SchemeAgnosticKey returns a key under which http:// and https://
// variants of the same URL collide, the way the Wayback Machine indexes
// captures. The scheme is dropped and a leading "www." is removed.
func SchemeAgnosticKey(rawURL string) string {
	n := Normalize(rawURL)
	rest, ok := stripScheme(n)
	if !ok {
		return n
	}
	rest = strings.TrimPrefix(rest, "www.")
	return rest
}

// EditDistance returns the Levenshtein distance between a and b,
// counting insertions, deletions, and substitutions each as 1. The
// §5.2 typo analysis deems a dead link a potential typo when exactly
// one archived URL under the same domain has edit distance exactly 1.
func EditDistance(a, b string) int {
	if a == b {
		return 0
	}
	// Ensure b is the shorter string to bound the row buffer.
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

// bandStackK is the largest k whose two band rows fit the fixed-size
// array EditDistanceAtMost keeps on its stack.
const bandStackK = 8

// EditDistanceAtMost reports whether EditDistance(a, b) <= k, in
// O(len + k·len) time and, for k <= bandStackK, without allocating.
// The spatial analysis compares a dead URL to every archived URL under
// the same domain with k = 1, so the bound is what keeps the typo
// probe linear in the candidate's length.
//
// The common prefix and suffix are stripped first: they never take
// part in an optimal alignment's edits, and archived URLs of one
// domain share a long prefix. What remains runs through Ukkonen's
// band — an alignment within k edits never strays more than k cells
// from the diagonal, so only cells with |i-j| <= k are filled — and
// stops at the first row whose minimum already exceeds k. Bytes, not
// runes, as EditDistance.
func EditDistanceAtMost(a, b string, k int) bool {
	if k < 0 {
		return false
	}
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	a, b = a[p:], b[p:]
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)-len(b) > k {
		return false
	}
	if len(a) <= k {
		// Covers an empty remainder: the distance is at most len(a).
		return true
	}

	// Cell (i, j) of the matrix lives at band offset d = j-i+k of row
	// i, so its neighbours are prev[d] (diagonal), prev[d+1] (above)
	// and curr[d-1] (left). Every value is capped at over = k+1, which
	// also stands for cells outside the band or the matrix.
	over := k + 1
	width := 2*k + 1
	var stack [2 * (2*bandStackK + 1)]int
	rows := stack[:]
	if 2*width > len(rows) {
		rows = make([]int, 2*width)
	}
	prev, curr := rows[:width], rows[width:2*width]
	for d := range prev {
		if j := d - k; j >= 0 && j <= len(b) {
			prev[d] = j
		} else {
			prev[d] = over
		}
	}
	for i := 1; i <= len(a); i++ {
		ca := a[i-1]
		rowMin := over
		for d := 0; d < width; d++ {
			j := i + d - k
			v := over
			if j == 0 {
				v = i
			} else if j > 0 && j <= len(b) {
				v = prev[d]
				if ca != b[j-1] {
					v++
				}
				if d+1 < width && prev[d+1]+1 < v {
					v = prev[d+1] + 1
				}
				if d > 0 && curr[d-1]+1 < v {
					v = curr[d-1] + 1
				}
			}
			if v > over {
				v = over
			}
			curr[d] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > k {
			return false
		}
		prev, curr = curr, prev
	}
	return prev[len(b)-len(a)+k] <= k
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// param is a single query parameter occurrence.
type param struct {
	Key   string
	Value string
}

// parseQuery decomposes a raw query string into key/value pairs in
// order of appearance. Unlike url.Values it preserves duplicates and
// ordering, which §5.2 needs to reason about parameter-order variants.
func parseQuery(q string) []param {
	if q == "" {
		return nil
	}
	parts := strings.Split(q, "&")
	params := make([]param, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			continue
		}
		k, v, _ := strings.Cut(p, "=")
		ku, err := url.QueryUnescape(k)
		if err != nil {
			ku = k
		}
		vu, err := url.QueryUnescape(v)
		if err != nil {
			vu = v
		}
		params = append(params, param{Key: ku, Value: vu})
	}
	return params
}

// CanonicalQueryKey returns the URL with its query parameters sorted by
// key (then value), so that two URLs that differ only in parameter
// order map to the same key — implementing the paper's §5.2 suggestion
// of "looking for archived URLs which are identical except that they
// include the query parameters in a different order".
func CanonicalQueryKey(rawURL string) string {
	u, err := url.Parse(strings.TrimSpace(rawURL))
	if err != nil || u.RawQuery == "" {
		return Normalize(rawURL)
	}
	params := parseQuery(u.RawQuery)
	sort.SliceStable(params, func(i, j int) bool {
		if params[i].Key != params[j].Key {
			return params[i].Key < params[j].Key
		}
		return params[i].Value < params[j].Value
	})
	var b strings.Builder
	for i, p := range params {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(url.QueryEscape(p.Key))
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(p.Value))
	}
	u.RawQuery = b.String()
	u.Fragment = ""
	u.Scheme = strings.ToLower(u.Scheme)
	u.Host = strings.ToLower(u.Host)
	return u.String()
}

// HasQuery reports whether the URL carries a non-empty query string.
func HasQuery(rawURL string) bool {
	u, err := url.Parse(strings.TrimSpace(rawURL))
	return err == nil && u.RawQuery != ""
}
