package simweb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"permadead/internal/hashx"
)

// The reference forms below are the generator as it stood before
// pageBody wrote into one buffer: a []string of words, strings.Join,
// fmt.Fprintf. They are the oracle the production code must equal byte
// for byte — every archived capture and every soft-404 shingle in a
// saved universe derives from these bodies.

func refWords(seed uint64, n int) []string {
	out := make([]string, n)
	s := seed
	for i := range out {
		s = hashx.Mix64(s)
		out[i] = wordBank[s%uint64(len(wordBank))]
	}
	return out
}

func refTitleCase(w string) string {
	if w == "" || w[0] < 'a' || w[0] > 'z' {
		return w
	}
	return string(w[0]-'a'+'A') + w[1:]
}

func refSentence(seed uint64, n int) string {
	ws := refWords(seed, n)
	ws[0] = refTitleCase(ws[0])
	return strings.Join(ws, " ") + "."
}

func refTitleWords(ws []string) string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = refTitleCase(w)
	}
	return strings.Join(out, " ")
}

func refPageBody(s *Site, p *Page) string {
	if p.Content != "" {
		return p.Content
	}
	seed := hash64(s.Hostname, p.Path) ^ s.Seed
	title := p.Title
	if title == "" {
		title = refTitleWords(refWords(seed, 4))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n", title)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", title)
	for i := 0; i < 4; i++ {
		b.WriteString("<p>")
		for j := 0; j < 5; j++ {
			b.WriteString(refSentence(seed+uint64(i*7+j+1), 8))
			b.WriteByte(' ')
		}
		b.WriteString("</p>\n")
	}
	fmt.Fprintf(&b, "<footer>%s</footer></body></html>\n", s.Hostname)
	return b.String()
}

// randText draws a printable string of up to max bytes, markup
// characters and non-ASCII included.
func randText(rng *rand.Rand, max int) string {
	const alphabet = "abcXYZ019 -._/?=&%<>\"'é世"
	runes := []rune(alphabet)
	out := make([]rune, rng.Intn(max+1))
	for i := range out {
		out[i] = runes[rng.Intn(len(runes))]
	}
	return string(out)
}

func TestPageBodyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		s := &Site{Hostname: "h" + randText(rng, 30) + ".simnews", Seed: rng.Uint64()}
		p := &Page{Path: "/" + randText(rng, 40)}
		switch i % 4 {
		case 1:
			p.Title = randText(rng, 60)
		case 2:
			p.Content = "x" + randText(rng, 200)
		case 3: // explicit content wins over a title
			p.Title, p.Content = randText(rng, 20), "<html>"+randText(rng, 50)+"</html>"
		}
		want := refPageBody(s, p)
		if got := pageBody(s, p); got != want {
			t.Fatalf("tuple %d (%q %q seed %d title %q): pageBody =\n%q\nreference =\n%q",
				i, s.Hostname, p.Path, s.Seed, p.Title, got, want)
		}
		if got := pageBodyLen(s, p); got != len(want) {
			t.Fatalf("tuple %d (%q %q seed %d title %q): pageBodyLen = %d, len(reference) = %d",
				i, s.Hostname, p.Path, s.Seed, p.Title, got, len(want))
		}
	}
}

// TestBodyLenConcurrentFirstCalls: goroutines that ask a fresh page's
// length at once (the generator's check stage and its timeline loop
// can) all get the reference length, and so does a later call answered
// from the world's memo. Run it under -race.
func TestBodyLenConcurrentFirstCalls(t *testing.T) {
	const callers = 4
	rng := rand.New(rand.NewSource(29))
	w := NewWorld()
	for i := 0; i < 200; i++ {
		s := &Site{Hostname: "h" + randText(rng, 20) + ".simnews", Seed: rng.Uint64()}
		p := &Page{Path: "/" + randText(rng, 30)}
		if i%2 == 1 {
			p.Title = randText(rng, 40)
		}
		want := len(refPageBody(s, p))
		var start, done sync.WaitGroup
		start.Add(1)
		got := make([]int, callers)
		for c := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[c] = w.bodyLen(s, p)
			}()
		}
		start.Done()
		done.Wait()
		got = append(got, w.bodyLen(s, p))
		for c, n := range got {
			if n != want {
				t.Fatalf("page %d (%q %q): caller %d got length %d, reference %d", i, s.Hostname, p.Path, c, n, want)
			}
		}
	}
}

// The boilerplate pages (404, soft error, parked) share pageBody's word
// generator; hold it to the reference at every length they use.
func TestWordGeneratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		seed, n := rng.Uint64(), 1+rng.Intn(14)
		if got, want := string(appendSentence(nil, seed, n)), refSentence(seed, n); got != want {
			t.Fatalf("appendSentence(%d, %d) = %q, reference %q", seed, n, got, want)
		}
		got := string(appendWords([]byte("x"), seed, n, 0, ", "))
		if want := "x" + strings.Join(refWords(seed, n), ", "); got != want {
			t.Fatalf("appendWords(%d, %d, sep \", \") = %q, reference %q", seed, n, got, want)
		}
		if got := wordsLen(seed, n); got != len(strings.Join(refWords(seed, n), "")) {
			t.Fatalf("wordsLen(%d, %d) = %d", seed, n, got)
		}
	}
}

// The site-wide pages as fmt.Sprintf built them, before each became
// one concatenation. TestSitePagesMatchReference holds every page to
// its reference byte for byte.

func refNotFoundBody(s *Site, path string) string {
	return fmt.Sprintf(
		"<html><head><title>404 Not Found</title></head><body>"+
			"<h1>Not Found</h1><p>The requested URL %s was not found on %s.</p>"+
			"<p>%s</p></body></html>\n",
		path, s.Hostname, refSentence(hash64(s.Hostname, "404")^s.Seed, 12))
}

func refSoftErrorBody(s *Site) string {
	seed := hash64(s.Hostname, "softerror") ^ s.Seed
	return fmt.Sprintf(
		"<html><head><title>%s</title></head><body>"+
			"<h1>Sorry, we could not find that page</h1>"+
			"<p>The page you are looking for may have been removed or is "+
			"temporarily unavailable.</p><p>%s %s</p>"+
			"<p>Return to the <a href=\"/\">homepage</a>.</p></body></html>\n",
		s.Hostname, refSentence(seed, 10), refSentence(seed+1, 10))
}

func refParkedBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>%s is for sale</title></head><body>"+
			"<h1>%s</h1><p>This domain may be for sale. Buy this domain.</p>"+
			"<p>Related searches: %s</p>"+
			"<p>Sponsored listings provided by the registrar.</p></body></html>\n",
		s.Hostname, s.Hostname, strings.Join(refWords(hash64(s.Hostname, "parked"), 6), ", "))
}

func refLoginBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>Sign in - %s</title></head><body>"+
			"<h1>Sign in</h1>"+
			"<form method=\"post\" action=\"/login\">"+
			"<input name=\"username\" type=\"text\">"+
			"<input name=\"password\" type=\"password\">"+
			"<button type=\"submit\">Log in</button></form>"+
			"</body></html>\n",
		s.Hostname)
}

func refOutageBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>503 Service Unavailable</title></head><body>"+
			"<h1>Service Unavailable</h1><p>%s is temporarily unable to "+
			"service your request. Please try again later.</p></body></html>\n",
		s.Hostname)
}

func refBusyBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>503 Service Unavailable</title></head><body>"+
			"<h1>We'll be right back</h1><p>%s is experiencing unusually "+
			"high load. Please retry shortly.</p></body></html>\n",
		s.Hostname)
}

func refRateLimitBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>429 Too Many Requests</title></head><body>"+
			"<h1>Too Many Requests</h1><p>You have sent too many requests "+
			"to %s. Slow down and retry.</p></body></html>\n",
		s.Hostname)
}

func refGeoBlockBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>403 Forbidden</title></head><body>"+
			"<h1>Access Denied</h1><p>%s is not available in your region.</p>"+
			"</body></html>\n",
		s.Hostname)
}

func refPaywallBody(s *Site) string {
	return fmt.Sprintf(
		"<html><head><title>Subscribe to continue - %s</title></head><body>"+
			"<h1>Subscribe to continue reading</h1><p>This article is "+
			"available to %s subscribers. Sign in or start a free trial.</p>"+
			"</body></html>\n",
		s.Hostname, s.Hostname)
}

func refRedirectBody(location string) string {
	return fmt.Sprintf(
		"<html><head><title>Moved</title></head><body>"+
			"<a href=\"%s\">Moved here</a></body></html>\n", location)
}

func TestSitePagesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		s := &Site{Hostname: "h" + randText(rng, 30) + ".simnews", Seed: rng.Uint64()}
		path := "/" + randText(rng, 40)
		for _, c := range []struct {
			page      string
			got, want string
		}{
			{"404", notFoundBody(s, path), refNotFoundBody(s, path)},
			{"soft 200", softErrorBody(s), refSoftErrorBody(s)},
			{"parked", parkedBody(s), refParkedBody(s)},
			{"login", loginBody(s), refLoginBody(s)},
			{"outage", outageBody(s), refOutageBody(s)},
			{"busy", busyBody(s), refBusyBody(s)},
			{"429", rateLimitBody(s), refRateLimitBody(s)},
			{"403", geoBlockBody(s), refGeoBlockBody(s)},
			{"402", paywallBody(s), refPaywallBody(s)},
			{"redirect", redirectBody(path), refRedirectBody(path)},
		} {
			if c.got != c.want {
				t.Fatalf("site %q seed %d path %q: %s page =\n%q\nreference =\n%q",
					s.Hostname, s.Seed, path, c.page, c.got, c.want)
			}
		}
	}
}

// TestSitePageAllocs: each site-wide page is one allocation, its
// sentences rendered on the stack; a generated page body is one too.
func TestSitePageAllocs(t *testing.T) {
	s := &Site{Hostname: "www.example.simnews", Seed: 7}
	p := &Page{Path: "/news/item.html"}
	for _, c := range []struct {
		page string
		f    func()
	}{
		{"404", func() { notFoundBody(s, "/missing") }},
		{"soft 200", func() { softErrorBody(s) }},
		{"parked", func() { parkedBody(s) }},
		{"redirect", func() { redirectBody("/") }},
		{"page", func() { pageBody(s, p) }},
	} {
		if n := testing.AllocsPerRun(20, c.f); n != 1 {
			t.Errorf("%s: %v allocations, want 1", c.page, n)
		}
	}
}
