package softerror

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"permadead/internal/fetch"
	"permadead/internal/shingle"
	"permadead/internal/urlutil"
)

// checkReference is Check as it was before each body was lowered only
// once: the parked test, the login test and the shingle comparison each
// lowered the raw body they read. Check is held to it.
func checkReference(ctx context.Context, d *Detector, url string, orig fetch.Result) Verdict {
	probeURL := d.ProbeURLFor(url)
	v := Verdict{ProbeURL: probeURL}

	if looksParkedReference(orig.Body) {
		v.Broken = true
		v.Reason = ReasonParkedContent
		return v
	}

	probe := d.Client.Fetch(ctx, probeURL)
	if probe.Err != nil || probe.FinalStatus == 0 {
		v.Reason = ReasonProbeInconclusive
		return v
	}

	if orig.Redirected && probe.Redirected &&
		urlutil.Normalize(orig.FinalURL) == urlutil.Normalize(probe.FinalURL) &&
		!isLoginPageReference(probe.FinalURL, probe.Body) {
		v.Broken = true
		v.Reason = ReasonSameRedirectTarget
		return v
	}

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

// isLoginPageReference is isLoginPage lowering the raw body itself.
func isLoginPageReference(finalURL, body string) bool {
	lower := strings.ToLower(finalURL)
	if strings.Contains(lower, "login") || strings.Contains(lower, "signin") ||
		strings.Contains(lower, "sign-in") || strings.Contains(lower, "auth") {
		return true
	}
	lb := strings.ToLower(body)
	return strings.Contains(lb, `type="password"`) || strings.Contains(lb, "type='password'")
}

// looksParkedReference is the parked test lowering the raw body
// itself.
func looksParkedReference(body string) bool {
	lb := strings.ToLower(body)
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

// looksErrorBoilerplateReference is the page-not-found test lowering
// the raw body itself.
func looksErrorBoilerplateReference(body string) bool {
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

// looksSoftErrorReference is the pair of tests the snapshot check made
// before LooksSoftError, each lowering the body on its own.
func looksSoftErrorReference(body string) bool {
	return looksParkedReference(body) || looksErrorBoilerplateReference(body)
}

// textCases are bodies on which matching markers in place could differ
// from lowering a copy: upper case, runes that lower to ASCII (the
// Kelvin sign, the dotted capital I), runes that change byte length
// when lowered, invalid UTF-8 that lowering replaces, tags, a marker
// cut by the end of the body, and markers that share a first byte.
var textCases = []string{
	"",
	"a page about link rot",
	"THIS DOMAIN MAY BE FOR SALE",
	"Domain İS FOR SALE",
	"Keyword: Buy This Domain",
	`<INPUT TYPE="PASSWORD">`,
	"<input type='PASSWORD'>",
	"\xff\xfeIS FOR SALE\xc3",
	"<p>Ⱥ ȿ Ɐ \xe2\x82 page NOT found</p>",
	"<b\xff>Sponsored Listings</b>related searches:",
	"ǅǈǋ ΣΑΣ Straße ß ẞ <x>hidden</x> shown",
	"<<nested>> text>after < open",
	"this domain is par\u212aed",
	"the domain is parke",
	"domain maY be for salE, domain is PARKED",
	"Page you are LOOKING for",
	"the page you are loo\u212aing for",
	"404 NOT FOUND",
	"no longer availabl",
	"type=\"password",
}

// TestSoftTextMatchesReference: the parked, login and soft-error tests
// that match markers in place equal the reference tests that lower
// the raw bodies themselves.
func TestSoftTextMatchesReference(t *testing.T) {
	for _, a := range textCases {
		if got, want := parkedMarkers.in(a), looksParkedReference(a); got != want {
			t.Errorf("parked(%q) = %v, reference %v", a, got, want)
		}
		if got, want := LooksSoftError(a), looksSoftErrorReference(a); got != want {
			t.Errorf("LooksSoftError(%q) = %v, reference %v", a, got, want)
		}
		if got, want := isLoginPage("http://x.simtest/p", a), isLoginPageReference("http://x.simtest/p", a); got != want {
			t.Errorf("isLoginPage(%q) = %v, reference %v", a, got, want)
		}
	}
}

// FuzzMarkersDifferential: on arbitrary bodies, the in-place marker
// tests equal the reference tests that lower a copy.
func FuzzMarkersDifferential(f *testing.F) {
	for _, a := range textCases {
		f.Add(a)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if got, want := LooksSoftError(body), looksSoftErrorReference(body); got != want {
			t.Fatalf("LooksSoftError(%q) = %v, reference %v", body, got, want)
		}
		if got, want := parkedMarkers.in(body), looksParkedReference(body); got != want {
			t.Fatalf("parked(%q) = %v, reference %v", body, got, want)
		}
		if got, want := loginMarkers.in(body), isLoginPageReference("http://x.simtest/p", body); got != want {
			t.Fatalf("login(%q) = %v, reference %v", body, got, want)
		}
	})
}

// scriptedProbe answers the probe GET of a fuzzed Check: a 302 to
// final when redirect is set, else status with body; the redirect's
// target answers status with body.
type scriptedProbe struct {
	redirect bool
	final    string
	status   int
	body     string
	hops     int
}

func (p *scriptedProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	p.hops++
	resp := &http.Response{StatusCode: p.status, Header: make(http.Header), Request: req}
	body := p.body
	if p.redirect && p.hops == 1 {
		resp.StatusCode, body = http.StatusFound, ""
		resp.Header.Set("Location", p.final)
	}
	resp.Body = io.NopCloser(strings.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// FuzzSoftTextDifferential: arbitrary bytes for both bodies and both
// final URLs, with either side redirected and the probe answering any
// of four statuses, give Check the reference's Verdict.
func FuzzSoftTextDifferential(f *testing.F) {
	const url = "http://h.simtest/dir/page.html"
	f.Add("a page about link rot", "a page about link rot", "http://h.simtest/", "http://h.simtest/", true, true, uint8(0))
	f.Add("Welcome HOME", "<p>welcome home</p>", "http://h.simtest/", "/", true, true, uint8(0))
	f.Add("x", `<form><INPUT TYPE="PASSWORD"></form>`, "http://h.simtest/x", "http://h.simtest/x", true, true, uint8(1))
	f.Add("\xff\xfeIS FOR SALE", "İS FOR SALE", "", "", false, false, uint8(0))
	f.Add("KK page", "kk PAGE", "http://h.simtest/Login", "/Login", true, true, uint8(2))
	f.Add("Straße <b>ẞ</b>", "STRASSE ss", "", "", false, true, uint8(3))
	f.Fuzz(func(t *testing.T, origBody, probeBody, origFinal, probeFinal string, origRedir, probeRedir bool, status uint8) {
		orig := fetch.Result{
			URL: url, Category: fetch.Cat200, InitialStatus: 200, FinalStatus: 200,
			FinalURL: url, Body: origBody,
		}
		if origRedir {
			orig.InitialStatus, orig.FinalURL, orig.Redirected = 301, origFinal, true
		}
		probeStatus := []int{200, 404, 403, 500}[status%4]
		verdict := func(check func(context.Context, *Detector, string, fetch.Result) Verdict) Verdict {
			p := &scriptedProbe{redirect: probeRedir, final: probeFinal, status: probeStatus, body: probeBody}
			return check(context.Background(), NewDetector(fetch.New(p)), url, orig)
		}
		got := verdict(func(ctx context.Context, d *Detector, u string, r fetch.Result) Verdict { return d.Check(ctx, u, r) })
		if want := verdict(checkReference); got != want {
			t.Errorf("Check = %+v, reference %+v", got, want)
		}
	})
}
