package simweb

import (
	"hash/fnv"
	"unsafe"

	"permadead/internal/hashx"
)

// Deterministic body generation. Every page body is a function of the
// site seed and the page path, so repeated requests for the same URL
// return the same document (modulo the rotating fragment below) and
// different URLs return visibly different documents. Site-level
// boilerplate (error pages, parked pages, login pages) is identical
// across paths on the same site — which is exactly the property the
// soft-404 detector keys on.

var wordBank = []string{
	"archive", "article", "border", "capital", "century", "charter",
	"citizen", "classic", "climate", "college", "council", "country",
	"culture", "current", "digital", "economy", "edition", "element",
	"evening", "faculty", "federal", "feature", "gallery", "general",
	"harbour", "heritage", "history", "imperial", "industry", "journal",
	"justice", "landmark", "league", "library", "machine", "meridian",
	"minister", "monument", "morning", "museum", "network", "notable",
	"official", "orchard", "pacific", "parliament", "pioneer", "portrait",
	"program", "project", "province", "quarter", "railway", "record",
	"reform", "region", "report", "republic", "reserve", "review",
	"saturday", "science", "section", "senate", "service", "session",
	"society", "station", "stadium", "student", "summer", "supreme",
	"theatre", "tribune", "tribunal", "valley", "venture", "village",
	"volume", "western", "winter", "witness",
}

func hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// appendWords appends n deterministic words from the bank for the
// given seed, joined by sep, the first caps of them title-cased (every
// bank word is lower-case ASCII).
func appendWords(dst []byte, seed uint64, n, caps int, sep string) []byte {
	for i := 0; i < n; i++ {
		seed = hashx.Mix64(seed)
		w := wordBank[seed%uint64(len(wordBank))]
		if i > 0 {
			dst = append(dst, sep...)
		}
		if i < caps {
			dst = append(dst, w[0]-'a'+'A')
			w = w[1:]
		}
		dst = append(dst, w...)
	}
	return dst
}

// wordsLen is the total length of the n words appendWords draws for
// seed.
func wordsLen(seed uint64, n int) (total int) {
	for ; n > 0; n-- {
		seed = hashx.Mix64(seed)
		total += len(wordBank[seed%uint64(len(wordBank))])
	}
	return total
}

// appendSentence appends a capitalized sentence of n words.
func appendSentence(dst []byte, seed uint64, n int) []byte {
	return append(appendWords(dst, seed, n, 1, " "), '.')
}

// pageFixedLen is a generated page's markup: the tags and, for each
// of its 20 sentences, seven word gaps and ". ".
const pageFixedLen = len("<html><head><title></title></head><body>\n<h1></h1>\n<footer></footer></body></html>\n") +
	4*len("<p></p>\n") + 20*9

// pageBodyLen is len(pageBody(s, p)) without building the body, so the
// transport can state Content-Length for a page it has not rendered.
func pageBodyLen(s *Site, p *Page) int {
	if p.Content != "" {
		return len(p.Content)
	}
	seed := hash64(s.Hostname, p.Path) ^ s.Seed
	n := pageFixedLen + 2*len(p.Title) + len(s.Hostname)
	if p.Title == "" {
		n += 2 * (wordsLen(seed, 4) + 3)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			n += wordsLen(seed+uint64(i*7+j+1), 8)
		}
	}
	return n
}

// pageBody renders the page's content in one buffer of the exact size.
func pageBody(s *Site, p *Page) string {
	if p.Content != "" {
		return p.Content
	}
	b := appendPageBody(make([]byte, 0, pageBodyLen(s, p)), s, p)
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is never written again
}

// appendPageBody appends the page's content, generating a
// deterministic document when none was set explicitly: a title (four
// words unless the page names one) and four paragraphs of ~40 words,
// enough text for shingle similarity to be meaningful. It is the one
// renderer: pageBody wraps it, and the transport's body renders
// through it straight into the reader's buffer.
func appendPageBody(dst []byte, s *Site, p *Page) []byte {
	if p.Content != "" {
		return append(dst, p.Content...)
	}
	seed := hash64(s.Hostname, p.Path) ^ s.Seed
	for _, open := range [2]string{"<html><head><title>", "</title></head><body>\n<h1>"} {
		dst = append(dst, open...)
		if p.Title != "" {
			dst = append(dst, p.Title...)
		} else {
			dst = appendWords(dst, seed, 4, 4, " ")
		}
	}
	dst = append(dst, "</h1>\n"...)
	for i := 0; i < 4; i++ {
		dst = append(dst, "<p>"...)
		for j := 0; j < 5; j++ {
			dst = append(appendSentence(dst, seed+uint64(i*7+j+1), 8), ' ')
		}
		dst = append(dst, "</p>\n"...)
	}
	dst = append(dst, "<footer>"...)
	dst = append(dst, s.Hostname...)
	return append(dst, "</footer></body></html>\n"...)
}

// The site-wide pages below are each built by one concatenation; a
// sentence is rendered into a stack buffer (the longest, 12 words of at
// most 10 letters, is 132 bytes) that the concatenation reads in place.

// notFoundBody is a site-wide 404 page; identical for every missing
// path on the site apart from the echoed path itself.
func notFoundBody(s *Site, path string) string {
	var buf [160]byte
	return "<html><head><title>404 Not Found</title></head><body>" +
		"<h1>Not Found</h1><p>The requested URL " + path + " was not found on " + s.Hostname + ".</p>" +
		"<p>" + string(appendSentence(buf[:0], hash64(s.Hostname, "404")^s.Seed, 12)) + "</p></body></html>\n"
}

// softErrorBody is the Soft200 style's "page not found" page: status
// 200, same body for every missing path.
func softErrorBody(s *Site) string {
	seed := hash64(s.Hostname, "softerror") ^ s.Seed
	var buf1, buf2 [160]byte
	return "<html><head><title>" + s.Hostname + "</title></head><body>" +
		"<h1>Sorry, we could not find that page</h1>" +
		"<p>The page you are looking for may have been removed or is " +
		"temporarily unavailable.</p><p>" +
		string(appendSentence(buf1[:0], seed, 10)) + " " + string(appendSentence(buf2[:0], seed+1, 10)) + "</p>" +
		"<p>Return to the <a href=\"/\">homepage</a>.</p></body></html>\n"
}

// parkedBody mimics a domain parker's landing page. All paths on a
// parked site serve this page (§3's znaci.net example).
func parkedBody(s *Site) string {
	var buf [160]byte
	return "<html><head><title>" + s.Hostname + " is for sale</title></head><body>" +
		"<h1>" + s.Hostname + "</h1><p>This domain may be for sale. Buy this domain.</p>" +
		"<p>Related searches: " + string(appendWords(buf[:0], hash64(s.Hostname, "parked"), 6, 0, ", ")) + "</p>" +
		"<p>Sponsored listings provided by the registrar.</p></body></html>\n"
}

// loginBody is the login page served by LoginRedirect sites.
func loginBody(s *Site) string {
	return "<html><head><title>Sign in - " + s.Hostname + "</title></head><body>" +
		"<h1>Sign in</h1>" +
		"<form method=\"post\" action=\"/login\">" +
		"<input name=\"username\" type=\"text\">" +
		"<input name=\"password\" type=\"password\">" +
		"<button type=\"submit\">Log in</button></form>" +
		"</body></html>\n"
}

// outageBody is the 503 page served during an outage window.
func outageBody(s *Site) string {
	return "<html><head><title>503 Service Unavailable</title></head><body>" +
		"<h1>Service Unavailable</h1><p>" + s.Hostname + " is temporarily unable to " +
		"service your request. Please try again later.</p></body></html>\n"
}

// busyBody is the 503 page served when a FaultServerBusy window fires
// — deliberately distinct from outageBody so tests can tell a
// transient fault from a planned outage.
func busyBody(s *Site) string {
	return "<html><head><title>503 Service Unavailable</title></head><body>" +
		"<h1>We'll be right back</h1><p>" + s.Hostname + " is experiencing unusually " +
		"high load. Please retry shortly.</p></body></html>\n"
}

// rateLimitBody is the 429 page served when a FaultRateLimit window
// fires.
func rateLimitBody(s *Site) string {
	return "<html><head><title>429 Too Many Requests</title></head><body>" +
		"<h1>Too Many Requests</h1><p>You have sent too many requests " +
		"to " + s.Hostname + ". Slow down and retry.</p></body></html>\n"
}

// geoBlockBody is the 403 page served to blocked vantage points.
func geoBlockBody(s *Site) string {
	return "<html><head><title>403 Forbidden</title></head><body>" +
		"<h1>Access Denied</h1><p>" + s.Hostname + " is not available in your region.</p>" +
		"</body></html>\n"
}

// paywallBody is the 402 page served when a FaultPaywall window fires:
// the article survives, but only for subscribers.
func paywallBody(s *Site) string {
	return "<html><head><title>Subscribe to continue - " + s.Hostname + "</title></head><body>" +
		"<h1>Subscribe to continue reading</h1><p>This article is " +
		"available to " + s.Hostname + " subscribers. Sign in or start a free trial.</p>" +
		"</body></html>\n"
}

// redirectBody is the tiny HTML body that accompanies 3xx responses.
func redirectBody(location string) string {
	return "<html><head><title>Moved</title></head><body>" +
		"<a href=\"" + location + "\">Moved here</a></body></html>\n"
}
