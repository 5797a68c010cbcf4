// Package psl implements the Public Suffix List matching algorithm used
// to map a hostname to its registrable domain ("eTLD+1").
//
// The paper (§2.4) maps each permanently dead link's hostname to its
// domain "using data from the Public Suffix List". The real list is a
// Mozilla-maintained file of several thousand rules; this package
// implements the full matching algorithm (normal rules, wildcard rules
// such as *.ck, and exception rules such as !www.ck) against an embedded
// rule set that covers both the public suffixes that appear in the
// paper's examples (com, org, net, co.uk, com.au, gov.au, net.il, ...)
// and the synthetic TLDs used by the simulated web.
//
// Rules can be extended at runtime via List.Add, so tests and the world
// generator can register additional suffixes.
package psl

import (
	"strings"
	"sync"
)

// List is a compiled set of public-suffix rules. The zero value is an
// empty list; use Default() for the embedded rule set.
type List struct {
	mu    sync.RWMutex
	rules map[string]ruleKind
}

type ruleKind uint8

const (
	ruleNormal ruleKind = iota + 1
	ruleWildcard
	ruleException
)

// defaultRules is the embedded miniature PSL. One rule per line, same
// syntax as the real list: "*." prefix for wildcard rules, "!" prefix
// for exceptions. The selection covers common real-world suffixes plus
// the synthetic top-level domains produced by internal/worldgen.
var defaultRules = []string{
	// Generic TLDs.
	"com", "org", "net", "edu", "gov", "mil", "int", "info", "biz",
	"name", "museum", "travel", "aero", "coop", "jobs", "mobi", "asia",
	"cat", "tel", "xxx", "arpa", "site", "online", "news", "blog",
	"shop", "app", "dev", "page", "wiki", "live", "media", "press",
	// Country-code TLDs that appear in the paper's examples or are
	// common in Wikipedia references.
	"us", "uk", "fr", "de", "il", "au", "ca", "jp", "cn", "ru", "in",
	"br", "it", "es", "nl", "se", "no", "fi", "dk", "pl", "cz", "at",
	"ch", "be", "ie", "nz", "za", "kr", "tw", "hk", "sg", "mx", "ar",
	"cl", "co", "is", "pt", "gr", "hu", "ro", "tr", "ua", "eu",
	// Second-level public suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk", "sch.uk",
	"com.au", "net.au", "org.au", "edu.au", "gov.au",
	"co.il", "org.il", "net.il", "ac.il", "gov.il",
	"co.jp", "or.jp", "ne.jp", "ac.jp", "go.jp",
	"com.cn", "org.cn", "net.cn", "gov.cn", "edu.cn",
	"com.br", "org.br", "net.br", "gov.br",
	"co.nz", "org.nz", "net.nz", "govt.nz",
	"co.za", "org.za", "net.za", "gov.za",
	"co.kr", "or.kr", "go.kr",
	"com.tw", "org.tw", "gov.tw",
	"com.hk", "org.hk", "gov.hk",
	"com.sg", "org.sg", "gov.sg",
	"com.mx", "org.mx", "gob.mx",
	"com.ar", "org.ar", "gob.ar",
	"gov.au", "tas.gov.au", "nsw.gov.au", "vic.gov.au",
	// Wildcard and exception rules, exercising the full algorithm.
	"*.ck", "!www.ck",
	"*.bd",
	"*.kw",
	// Synthetic TLDs used by the simulated web (internal/worldgen).
	"simtest", "simnews", "simgov", "simedu",
}

var (
	defaultOnce sync.Once
	defaultList *List
)

// Default returns the shared embedded rule list.
func Default() *List {
	defaultOnce.Do(func() {
		defaultList = New(defaultRules)
	})
	return defaultList
}

// New compiles a list from rule strings (PSL file syntax, comments and
// blank lines ignored).
func New(rules []string) *List {
	l := &List{rules: make(map[string]ruleKind, len(rules))}
	for _, r := range rules {
		l.Add(r)
	}
	return l
}

// Add inserts one rule in PSL syntax. Lines beginning with "//" and
// blank lines are ignored, matching the real list's file format.
func (l *List) Add(rule string) {
	rule = strings.TrimSpace(strings.ToLower(rule))
	if rule == "" || strings.HasPrefix(rule, "//") {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rules == nil {
		l.rules = make(map[string]ruleKind)
	}
	switch {
	case strings.HasPrefix(rule, "!"):
		l.rules[rule[1:]] = ruleException
	case strings.HasPrefix(rule, "*."):
		l.rules[rule[2:]] = ruleWildcard
	default:
		l.rules[rule] = ruleNormal
	}
}

// PublicSuffix returns the public suffix of hostname per the PSL
// algorithm: the longest matching rule wins; exception rules beat
// wildcard rules; if no rule matches, the suffix is the last label
// (the "*" implicit rule). The answer is a substring of the normalized
// host, and so is every candidate suffix looked up on the way: a
// lookup allocates nothing when hostname is already lower case.
func (l *List) PublicSuffix(hostname string) string {
	host := normalizeHost(hostname)
	if host == "" {
		return ""
	}

	l.mu.RLock()
	defer l.mu.RUnlock()

	// Walk suffixes from longest to shortest so the longest match wins:
	// host[i:] for i at the host's start and after each dot, prev being
	// the start of the label before it. An exception rule prevails over
	// all other matching rules, and its public suffix is the rule with
	// the leftmost label removed.
	best := ""
	bestLabels := 0
	labels := strings.Count(host, ".") + 1
	for i, prev, n := 0, -1, labels; n > 0; n-- {
		suffix := host[i:]
		switch l.rules[suffix] {
		case ruleException:
			if dot := strings.IndexByte(suffix, '.'); dot >= 0 {
				return suffix[dot+1:]
			}
			return ""
		case ruleNormal:
			if n > bestLabels {
				best, bestLabels = suffix, n
			}
		case ruleWildcard:
			// "*.ck" matches any label plus ".ck": one label longer
			// than the stored suffix.
			if prev >= 0 && n+1 > bestLabels {
				best, bestLabels = host[prev:], n+1
			}
		}
		prev = i
		i += strings.IndexByte(suffix, '.') + 1
	}
	if bestLabels == 0 {
		// Implicit "*" rule: the last label is the public suffix.
		return host[strings.LastIndexByte(host, '.')+1:]
	}
	return best
}

// RegistrableDomain returns the eTLD+1 for hostname: the public suffix
// plus one preceding label. It returns "" when the hostname is itself a
// public suffix (or empty), mirroring golang.org/x/net/publicsuffix.
// The answer is a substring of the normalized host.
func (l *List) RegistrableDomain(hostname string) string {
	host := normalizeHost(hostname)
	if host == "" {
		return ""
	}
	suffix := l.PublicSuffix(host)
	// The registrable label ends where "."+suffix ends host.
	restEnd := len(host) - len(suffix) - 1
	if restEnd < 0 || host[restEnd] != '.' || !strings.HasSuffix(host, suffix) {
		return ""
	}
	start := strings.LastIndexByte(host[:restEnd], '.') + 1
	if start == restEnd {
		return ""
	}
	return host[start:]
}

func normalizeHost(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	h = strings.TrimSuffix(h, ".")
	return h
}
