// Package softerror implements the study's soft-404 detector (§3),
// adapted from Bar-Yossef et al., "Sic transit gloria telae" (WWW
// 2004): a URL u that answers 200 may still be broken — the site may
// serve a "not found" page with status 200, redirect retired URLs to
// its homepage, or have been taken over by a domain parker.
//
// The probe works by constructing u', identical to u except that the
// suffix after the last '/' is replaced by a random 25-character
// string. u' is certainly invalid, so:
//
//   - if requests for u and u' redirect to the same final URL — and
//     that URL is not a login page — u is broken;
//   - if the final response bodies for u and u' are over 99% similar
//     (k-shingling similarity), u is broken;
//   - otherwise u is functional.
//
// Exact body equality is deliberately not required: two requests for
// the same URL can yield slightly different responses.
package softerror

import (
	"context"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf8"

	"permadead/internal/fetch"
	"permadead/internal/hashx"
	"permadead/internal/shingle"
	"permadead/internal/urlutil"
)

// Verdict classifies a 200-status URL.
type Verdict struct {
	// Broken is true when the URL is judged a soft-404.
	Broken bool
	// Reason explains the judgment.
	Reason Reason
	// ProbeURL is the random sibling u' used for the comparison.
	ProbeURL string
	// Similarity is the shingle similarity between the two final
	// bodies (set for ReasonSimilarContent and ReasonFunctional).
	Similarity float64
}

// Reason enumerates judgment grounds.
type Reason uint8

const (
	// ReasonFunctional: the URL passed all probes.
	ReasonFunctional Reason = iota
	// ReasonSameRedirectTarget: u and u' redirect to the same final
	// URL, which is not a login page.
	ReasonSameRedirectTarget
	// ReasonSimilarContent: final bodies are >99% similar.
	ReasonSimilarContent
	// ReasonParkedContent: the body matches domain-parking boilerplate.
	ReasonParkedContent
	// ReasonProbeInconclusive: the probe fetch itself failed; the URL
	// is given the benefit of the doubt and judged functional.
	ReasonProbeInconclusive
)

func (r Reason) String() string {
	switch r {
	case ReasonFunctional:
		return "functional"
	case ReasonSameRedirectTarget:
		return "same-redirect-target"
	case ReasonSimilarContent:
		return "similar-content"
	case ReasonParkedContent:
		return "parked-content"
	case ReasonProbeInconclusive:
		return "probe-inconclusive"
	default:
		return "unknown"
	}
}

// Detector probes 200-status URLs for soft-404 behaviour.
type Detector struct {
	// Client issues the probe fetches.
	Client *fetch.Client
	// SimilarityThreshold above which bodies are "the same page"
	// (paper: 0.99).
	SimilarityThreshold float64
	// ProbeLength is the random suffix length (paper: 25).
	ProbeLength int
}

// NewDetector returns a Detector with the paper's parameters.
func NewDetector(c *fetch.Client) *Detector {
	return &Detector{Client: c, SimilarityThreshold: 0.99, ProbeLength: 25}
}

// Check judges whether url — already fetched with final status 200 as
// orig — is a soft-404. The orig result is reused so the URL is
// fetched only once, as in the paper's methodology.
func (d *Detector) Check(ctx context.Context, url string, orig fetch.Result) Verdict {
	probeURL := d.ProbeURLFor(url)
	v := Verdict{ProbeURL: probeURL}

	// Parked-domain boilerplate is a soft error regardless of probes
	// (§3's znaci.net example).
	if parkedMarkers.in(orig.Body) {
		v.Broken = true
		v.Reason = ReasonParkedContent
		return v
	}

	probe := d.Client.Fetch(ctx, probeURL)
	if probe.Err != nil || probe.FinalStatus == 0 {
		v.Reason = ReasonProbeInconclusive
		return v
	}

	// Same final URL after redirections — unless it's a login page,
	// which legitimately swallows all unauthenticated paths.
	if orig.Redirected && probe.Redirected &&
		urlutil.Normalize(orig.FinalURL) == urlutil.Normalize(probe.FinalURL) &&
		!isLoginPage(probe.FinalURL, probe.Body) {
		v.Broken = true
		v.Reason = ReasonSameRedirectTarget
		return v
	}

	// Near-identical content for u and the certainly-invalid u'.
	if probe.FinalStatus == 200 {
		v.Similarity = shingle.Similarity(orig.Body, probe.Body)
		if v.Similarity > d.SimilarityThreshold {
			v.Broken = true
			v.Reason = ReasonSimilarContent
			return v
		}
	}

	v.Reason = ReasonFunctional
	return v
}

// ProbeURLFor builds u': url with its last path segment replaced by a
// deterministic pseudo-random string of ProbeLength characters. Using
// a URL-seeded generator keeps the whole study reproducible.
func (d *Detector) ProbeURLFor(url string) string {
	n := d.ProbeLength
	if n <= 0 {
		n = 25
	}
	return urlutil.ReplaceLastSegment(url, randomString(url, n))
}

const probeAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

func randomString(seedStr string, n int) string {
	h := hashx.FNV1a(seedStr)
	b := make([]byte, n)
	for i := range b {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		b[i] = probeAlphabet[h%uint64(len(probeAlphabet))]
	}
	return string(b)
}

// isLoginPage reports whether a final URL and its body look like a
// sign-in page: the exclusion the paper applies to the
// shared-redirect-target test.
func isLoginPage(finalURL, body string) bool {
	lower := strings.ToLower(finalURL)
	if strings.Contains(lower, "login") || strings.Contains(lower, "signin") ||
		strings.Contains(lower, "sign-in") || strings.Contains(lower, "auth") {
		return true
	}
	return loginMarkers.in(body)
}

// Body markers, lower-case ASCII. The parked ones are domain-parking
// boilerplate (Vissers et al., NDSS 2015 catalogue the telltale
// phrases); the error ones read like a "page not found" notice, the
// content signature of a soft-404.
var (
	parkedPhrases = []string{
		"domain may be for sale",
		"buy this domain",
		"is for sale",
		"domain is parked",
		"sponsored listings",
		"related searches:",
	}
	errorPhrases = []string{
		"could not find that page",
		"page not found",
		"page you are looking for",
		"no longer available",
		"404 not found",
	}

	parkedMarkers    = newMarkerSet(parkedPhrases...)
	loginMarkers     = newMarkerSet(`type="password"`, "type='password'")
	softErrorMarkers = newMarkerSet(slices.Concat(parkedPhrases, errorPhrases)...)
)

// LooksSoftError reports whether a 200-status body reads like
// parked-domain or page-not-found boilerplate, in one read of the body.
// The study's snapshot-erroneousness check uses it: an archived copy
// with status 200 but such a body is not a usable copy.
func LooksSoftError(body string) bool { return softErrorMarkers.in(body) }

// markerSet matches up to 16 lower-case ASCII phrases as
// strings.Contains(strings.ToLower(body), phrase) would, without a
// lowered copy of an ASCII body. first and second have bit j at
// phrases[j]'s first and second byte c and at c&^0x20 (its upper case
// for a letter; EqualFold rules out the rest).
type markerSet struct {
	phrases       []string
	first, second [256]uint16
}

func newMarkerSet(phrases ...string) *markerSet {
	m := &markerSet{phrases: phrases}
	for j, p := range phrases {
		m.first[p[0]] |= 1 << j
		m.first[p[0]&^0x20] |= 1 << j
		m.second[p[1]] |= 1 << j
		m.second[p[1]&^0x20] |= 1 << j
	}
	return m
}

// in reports whether body holds any of the phrases, A–Z folded. A hit
// among ASCII bytes stands; lowering can turn a non-ASCII rune into
// ASCII (U+212A KELVIN SIGN into 'k'), so a byte ≥ 0x80 sends the whole
// body through strings.ToLower.
func (m *markerSet) in(body string) bool {
	for i := 0; i < len(body); i++ {
		hits := m.first[body[i]]
		switch {
		case body[i] >= utf8.RuneSelf:
			lower := strings.ToLower(body)
			return slices.ContainsFunc(m.phrases, func(p string) bool { return strings.Contains(lower, p) })
		case hits == 0:
			continue
		case i+1 < len(body):
			hits &= m.second[body[i+1]]
		}
		for ; hits != 0; hits &= hits - 1 {
			// p is ASCII and as long as the window, so EqualFold matches
			// only ASCII bytes there, A–Z folded.
			if p := m.phrases[bits.TrailingZeros16(hits)]; i+len(p) <= len(body) && strings.EqualFold(body[i:i+len(p)], p) {
				return true
			}
		}
	}
	return false
}
