package simweb

import (
	"fmt"
	"math/rand"
	"strings"
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

// The boilerplate pages (404, soft error, parked) share pageBody's word
// generator; hold it to the reference at every length they use.
func TestWordGeneratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		seed, n := rng.Uint64(), 1+rng.Intn(14)
		if got, want := sentence(seed, n), refSentence(seed, n); got != want {
			t.Fatalf("sentence(%d, %d) = %q, reference %q", seed, n, got, want)
		}
		var b strings.Builder
		writeWords(&b, seed, n, 0, ", ")
		if want := strings.Join(refWords(seed, n), ", "); b.String() != want {
			t.Fatalf("writeWords(%d, %d, sep \", \") = %q, reference %q", seed, n, b.String(), want)
		}
		if got := wordsLen(seed, n); got != len(strings.Join(refWords(seed, n), "")) {
			t.Fatalf("wordsLen(%d, %d) = %d", seed, n, got)
		}
	}
}
