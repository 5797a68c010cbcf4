package shingle

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 123 foo-bar")
	want := []string{"hello", "world", "123", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeStripsTags(t *testing.T) {
	got := Tokenize("<html><body><p>only this text</p></body></html>")
	want := []string{"only", "this", "text"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestIdenticalDocuments(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog again and again"
	if sim := Similarity(text, text); sim != 1 {
		t.Errorf("identical docs similarity = %v, want 1", sim)
	}
}

func TestDisjointDocuments(t *testing.T) {
	a := "alpha beta gamma delta epsilon zeta eta theta"
	b := "one two three four five six seven eight"
	if sim := Similarity(a, b); sim != 0 {
		t.Errorf("disjoint docs similarity = %v, want 0", sim)
	}
}

func TestNearDuplicates(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "sentence %d about the page address and content here ", i)
	}
	base := sb.String()
	// One word changed out of ~400.
	modified := strings.Replace(base, "sentence 20", "sentence twenty", 1)
	sim := Similarity(base, modified)
	if sim < 0.8 {
		t.Errorf("near-duplicate similarity = %v, want > 0.8", sim)
	}
	if sim >= 1 {
		t.Errorf("modified doc should not be identical: %v", sim)
	}
}

func TestSoftErrorPagesCompareIdentical(t *testing.T) {
	// Two requests for different missing paths on a Soft200 site return
	// the same boilerplate; the detector needs similarity > 0.99.
	page := "<html><body><h1>Sorry, we could not find that page</h1><p>The page may have been removed.</p></body></html>"
	if sim := Similarity(page, page); sim <= 0.99 {
		t.Errorf("identical soft-404 bodies similarity = %v, want > 0.99", sim)
	}
}

func TestEmptyDocuments(t *testing.T) {
	if sim := Similarity("", ""); sim != 1 {
		t.Errorf("two empty docs = %v, want 1", sim)
	}
	if sim := Similarity("", "something here entirely"); sim != 0 {
		t.Errorf("empty vs non-empty = %v, want 0", sim)
	}
}

func TestShortDocuments(t *testing.T) {
	// Shorter than k tokens: still comparable.
	if sim := Similarity("ok", "ok"); sim != 1 {
		t.Errorf("short identical docs = %v, want 1", sim)
	}
	if sim := Similarity("ok", "no"); sim != 0 {
		t.Errorf("short different docs = %v, want 0", sim)
	}
}

func TestNewRespectK(t *testing.T) {
	text := "a b c d e f"
	s2 := New(text, 2) // 5 shingles
	s3 := New(text, 3) // 4 shingles
	if len(s2) != 5 {
		t.Errorf("k=2 shingles = %d, want 5", len(s2))
	}
	if len(s3) != 4 {
		t.Errorf("k=3 shingles = %d, want 4", len(s3))
	}
	// k<=0 falls back to DefaultK.
	if got := New(text, 0); len(got) != len(New(text, DefaultK)) {
		t.Error("k=0 should fall back to DefaultK")
	}
}

func TestResemblanceProperties(t *testing.T) {
	// Resemblance is symmetric and within [0,1] for arbitrary text.
	prop := func(a, b string) bool {
		sa, sb := New(a, DefaultK), New(b, DefaultK)
		r1, r2 := Resemblance(sa, sb), Resemblance(sb, sa)
		return r1 == r2 && r1 >= 0 && r1 <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Self-resemblance is 1.
	self := func(a string) bool {
		s := New(a, DefaultK)
		return Resemblance(s, s) == 1
	}
	if err := quick.Check(self, nil); err != nil {
		t.Error(err)
	}
}
