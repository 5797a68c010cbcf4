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
	"strings"

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

	// Each body is lowered at most once: the parked, login and shingle
	// tests all read the lowered copy.
	origLower := strings.ToLower(orig.Body)

	// Parked-domain boilerplate is a soft error regardless of probes
	// (§3's znaci.net example).
	if looksParked(origLower) {
		v.Broken = true
		v.Reason = ReasonParkedContent
		return v
	}

	probe := d.Client.Fetch(ctx, probeURL)
	if probe.Err != nil || probe.FinalStatus == 0 {
		v.Reason = ReasonProbeInconclusive
		return v
	}

	sameTarget := orig.Redirected && probe.Redirected &&
		urlutil.Normalize(orig.FinalURL) == urlutil.Normalize(probe.FinalURL)
	var probeLower string
	if sameTarget || probe.FinalStatus == 200 {
		probeLower = strings.ToLower(probe.Body)
	}

	// Same final URL after redirections — unless it's a login page,
	// which legitimately swallows all unauthenticated paths.
	if sameTarget && !isLoginPage(probe.FinalURL, probeLower) {
		v.Broken = true
		v.Reason = ReasonSameRedirectTarget
		return v
	}

	// Near-identical content for u and the certainly-invalid u'.
	if probe.FinalStatus == 200 {
		v.Similarity = shingle.SimilarityLower(origLower, probeLower)
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

// isLoginPage reports whether a final URL and its body, already lowered
// by strings.ToLower, look like a sign-in page: the exclusion the paper
// applies to the shared-redirect-target test.
func isLoginPage(finalURL, lowerBody string) bool {
	lower := strings.ToLower(finalURL)
	if strings.Contains(lower, "login") || strings.Contains(lower, "signin") ||
		strings.Contains(lower, "sign-in") || strings.Contains(lower, "auth") {
		return true
	}
	return strings.Contains(lowerBody, `type="password"`) || strings.Contains(lowerBody, "type='password'")
}

// looksParked reports whether a body, already lowered by
// strings.ToLower, matches domain-parking boilerplate (Vissers et al.,
// NDSS 2015 catalogue the telltale phrases).
func looksParked(lb string) bool {
	for _, marker := range []string{
		"domain may be for sale",
		"buy this domain",
		"is for sale",
		"domain is parked",
		"sponsored listings",
		"related searches:",
	} {
		if strings.Contains(lb, marker) {
			return true
		}
	}
	return false
}

// LooksParked reports whether a response body matches domain-parking
// boilerplate. Exposed for the study's snapshot-erroneousness check:
// an archived copy with status 200 but a parked-domain body is not a
// usable copy.
func LooksParked(body string) bool { return looksParked(strings.ToLower(body)) }

// LooksErrorBoilerplate reports whether a 200-status body reads like a
// "page not found" notice — the content signature of a soft-404.
func LooksErrorBoilerplate(body string) bool {
	lb := strings.ToLower(body)
	for _, marker := range []string{
		"could not find that page",
		"page not found",
		"page you are looking for",
		"no longer available",
		"404 not found",
	} {
		if strings.Contains(lb, marker) {
			return true
		}
	}
	return false
}
