package psl

import (
	"strings"
	"testing"
)

// refPublicSuffix and refRegistrableDomain are the lookups as first
// written, building each candidate suffix with strings.Split and
// strings.Join and the answer by concatenation. They are kept,
// test-only, as the reference the substring lookups are held to.
func (l *List) refPublicSuffix(hostname string) string {
	host := normalizeHost(hostname)
	if host == "" {
		return ""
	}
	labels := strings.Split(host, ".")

	l.mu.RLock()
	defer l.mu.RUnlock()

	best := ""
	bestLabels := 0
	for i := 0; i < len(labels); i++ {
		suffix := strings.Join(labels[i:], ".")
		n := len(labels) - i
		switch l.rules[suffix] {
		case ruleException:
			if dot := strings.Index(suffix, "."); dot >= 0 {
				return suffix[dot+1:]
			}
			return ""
		case ruleNormal:
			if n > bestLabels {
				best, bestLabels = suffix, n
			}
		case ruleWildcard:
			if i > 0 && n+1 > bestLabels {
				best = strings.Join(labels[i-1:], ".")
				bestLabels = n + 1
			}
		}
	}
	if bestLabels == 0 {
		return labels[len(labels)-1]
	}
	return best
}

func (l *List) refRegistrableDomain(hostname string) string {
	host := normalizeHost(hostname)
	if host == "" {
		return ""
	}
	suffix := l.refPublicSuffix(host)
	if host == suffix {
		return ""
	}
	rest := strings.TrimSuffix(host, "."+suffix)
	if rest == host {
		return ""
	}
	if dot := strings.LastIndex(rest, "."); dot >= 0 {
		rest = rest[dot+1:]
	}
	if rest == "" {
		return ""
	}
	return rest + "." + suffix
}

// TestLookupsMatchReference holds PublicSuffix and RegistrableDomain
// to the Split/Join reference on hosts built from every embedded rule
// (and a rule with no dot in it, as an exception): the rule itself,
// with one to three labels before it, in upper case, with empty labels
// and leading, trailing and doubled dots, padded with space, and under
// unknown and non-ASCII labels.
func TestLookupsMatchReference(t *testing.T) {
	l := New(append([]string{"!solo", "*.wild"}, defaultRules...))
	var hosts []string
	for _, rule := range append([]string{"solo", "x.solo", "wild", "zzz", "", "."}, defaultRules...) {
		base := strings.TrimPrefix(strings.TrimPrefix(rule, "!"), "*.")
		for _, pre := range []string{"", "a.", "b.a.", "www.c.b.", ".", "..", "a..", "Ünï.", "x.Ünï."} {
			for _, post := range []string{"", ".", "..", " ", ".zzz"} {
				h := pre + base + post
				hosts = append(hosts, h, strings.ToUpper(h), " "+h)
			}
		}
	}
	for _, h := range hosts {
		if got, want := l.PublicSuffix(h), l.refPublicSuffix(h); got != want {
			t.Errorf("PublicSuffix(%q) = %q, reference %q", h, got, want)
		}
		if got, want := l.RegistrableDomain(h), l.refRegistrableDomain(h); got != want {
			t.Errorf("RegistrableDomain(%q) = %q, reference %q", h, got, want)
		}
	}
}

// TestLookupsAllocateNothing: a lower-case host's lookups return
// substrings of it and allocate nothing.
func TestLookupsAllocateNothing(t *testing.T) {
	l := Default()
	for _, h := range []string{"www.example.com", "www.parliament.tas.gov.au", "x.bar.foo.ck", "sub.www.ck", "example.zzz"} {
		if n := testing.AllocsPerRun(100, func() { l.PublicSuffix(h) }); n != 0 {
			t.Errorf("PublicSuffix(%q) allocated %v times per run, want 0", h, n)
		}
		if n := testing.AllocsPerRun(100, func() { l.RegistrableDomain(h) }); n != 0 {
			t.Errorf("RegistrableDomain(%q) allocated %v times per run, want 0", h, n)
		}
	}
}
