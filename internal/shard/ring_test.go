package shard

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func testDomains(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("site-%04d.example", i)
	}
	return out
}

func TestRingDeterministicAcrossBuilds(t *testing.T) {
	members := []string{"s1", "s2", "s3", "s4"}
	a, err := New(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same members in a different order must place identically: the
	// ring depends only on member names.
	b, err := New([]string{"s3", "s1", "s4", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDomains(500) {
		if a.Owner(d) != b.Owner(d) {
			t.Fatalf("owner of %q differs across member orderings: %q vs %q", d, a.Owner(d), b.Owner(d))
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, err := New([]string{"s1", "s2", "s3", "s4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	domains := testDomains(4000)
	counts := r.OwnedCount(domains)
	if len(counts) != 4 {
		t.Fatalf("OwnedCount members = %d, want 4", len(counts))
	}
	for m, c := range counts {
		// Perfect balance is 1000 per member; consistent hashing with 64
		// vnodes should land well within 2x either way.
		if c < 500 || c > 2000 {
			t.Errorf("member %s owns %d of 4000 domains; ring badly imbalanced", m, c)
		}
	}
}

func TestRingOwnerNormalizesKeys(t *testing.T) {
	r, err := New([]string{"s1", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Owner("Example.COM") != r.Owner("example.com") {
		t.Error("Owner is case-sensitive; keys must normalize")
	}
	if r.Owner(" example.com ") != r.Owner("example.com") {
		t.Error("Owner does not trim whitespace")
	}
	// The empty key (unparseable URL) still routes somewhere.
	if r.Owner("") == "" {
		t.Error("empty domain has no owner")
	}
}

func TestRingOwnerOfURL(t *testing.T) {
	r, err := New([]string{"s1", "s2", "s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hosts under one registrable domain land on one shard — the
	// domain-affinity invariant multi-URL computations rely on.
	a := r.OwnerOfURL("http://www.news.example.co.uk/a/b")
	b := r.OwnerOfURL("https://archive.news.example.co.uk/other")
	if a != b {
		t.Errorf("same registrable domain split across shards: %q vs %q", a, b)
	}
}

func TestMoveDomain(t *testing.T) {
	r, err := New([]string{"s1", "s2", "s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	domain := "moveme.example"
	from := r.Owner(domain)
	var to string
	for _, m := range r.Members() {
		if m != from {
			to = m
			break
		}
	}

	nr, prev, point, err := r.MoveDomain(domain, to)
	if err != nil {
		t.Fatal(err)
	}
	if prev != from {
		t.Errorf("MoveDomain prior owner = %q, want %q", prev, from)
	}
	if _, p := r.locate(domain); point != p.h {
		t.Errorf("MoveDomain point = %d, want %d", point, p.h)
	}
	if nr.Owner(domain) != to {
		t.Errorf("after move, owner = %q, want %q", nr.Owner(domain), to)
	}
	if nr.Generation() != r.Generation()+1 {
		t.Errorf("generation = %d, want %d", nr.Generation(), r.Generation()+1)
	}
	if r.Owner(domain) != from {
		t.Error("MoveDomain mutated the receiver; rings must be immutable")
	}

	// No-op move: same owner, same ring, same generation.
	same, prev2, _, err := nr.MoveDomain(domain, to)
	if err != nil {
		t.Fatal(err)
	}
	if same != nr || prev2 != to {
		t.Error("moving a domain to its current owner should return the receiver unchanged")
	}

	// Latest-wins collapse: moving the same point again replaces the
	// move rather than stacking a second one.
	back, _, _, err := nr.MoveDomain(domain, from)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.State().Moves); got != 1 {
		t.Errorf("after re-moving the same point, moves = %d, want 1 (latest wins)", got)
	}
	if back.Owner(domain) != from {
		t.Errorf("after moving back, owner = %q, want %q", back.Owner(domain), from)
	}

	if _, _, _, err := r.MoveDomain(domain, "nope"); err == nil {
		t.Error("MoveDomain to unknown member should error")
	}
}

func TestFromStateValidation(t *testing.T) {
	cases := []struct {
		name string
		st   RingState
	}{
		{"no members", RingState{VNodes: 8}},
		{"empty member", RingState{VNodes: 8, Members: []string{"a", ""}}},
		{"duplicate member", RingState{VNodes: 8, Members: []string{"a", "a"}}},
		{"move to unknown member", RingState{VNodes: 8, Members: []string{"a"}, Moves: []Move{{Point: 1, To: "b"}}}},
		{"move of unknown point", RingState{VNodes: 8, Members: []string{"a", "b"}, Moves: []Move{{Point: 12345, To: "b"}}}},
	}
	for _, tc := range cases {
		if _, err := FromState(tc.st); err == nil {
			t.Errorf("%s: FromState accepted an invalid state", tc.name)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r, err := New([]string{"s1", "s2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	moved, _, _, err := r.MoveDomain("roundtrip.example", pickOther(r, "roundtrip.example"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(moved.State())
	if err != nil {
		t.Fatal(err)
	}
	var st RingState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt.State(), moved.State()) {
		t.Error("state does not survive a JSON round trip")
	}
	for _, d := range append(testDomains(200), "roundtrip.example") {
		if rebuilt.Owner(d) != moved.Owner(d) {
			t.Fatalf("rebuilt ring resolves %q to %q, original to %q", d, rebuilt.Owner(d), moved.Owner(d))
		}
	}
	// Mutating the returned state must not touch the ring.
	st2 := moved.State()
	st2.Members[0] = "hacked"
	if moved.Members()[0] == "hacked" {
		t.Error("State returned a shallow copy")
	}
}

func pickOther(r *Ring, domain string) string {
	cur := r.Owner(domain)
	for _, m := range r.Members() {
		if m != cur {
			return m
		}
	}
	return cur
}
