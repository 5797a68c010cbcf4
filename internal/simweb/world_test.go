package simweb

import (
	"sync"
	"sync/atomic"
	"testing"
)

// countingSource is a SiteSource over a fixed host list whose LoadSite
// counts its calls and, before it decodes, waits until ready is
// closed.
type countingSource struct {
	hosts []string
	loads atomic.Int64
	ready chan struct{}
}

func (c *countingSource) LoadSite(hostname string) *Site {
	c.loads.Add(1)
	<-c.ready
	for _, h := range c.hosts {
		if h == hostname {
			return NewSite(hostname, 0)
		}
	}
	return nil
}

func (c *countingSource) Hostnames() []string { return c.hosts }
func (c *countingSource) NumSites() int       { return len(c.hosts) }

// TestSiteDecodesEachHostOnce: 32 goroutines that first touch one host
// of a source-backed world at once share one LoadSite and one *Site,
// and a later touch decodes nothing. The decode waits until every
// goroutine is about to call Site, so the first touches overlap it.
func TestSiteDecodesEachHostOnce(t *testing.T) {
	const callers = 32
	src := &countingSource{hosts: []string{"a.simtest", "b.simtest", "c.simtest"}, ready: make(chan struct{})}
	w := NewWorld()
	w.SetSource(src)

	got := make([]*Site, callers)
	var arrived atomic.Int64
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if arrived.Add(1) == callers {
				close(src.ready)
			}
			got[g] = w.Site("B.simtest")
		}()
	}
	wg.Wait()

	if n := src.loads.Load(); n != 1 {
		t.Errorf("%d callers' first touch ran LoadSite %d times, want 1", callers, n)
	}
	if got[0] == nil || got[0].Hostname != "b.simtest" {
		t.Fatalf("Site(%q) = %+v", "B.simtest", got[0])
	}
	for g, s := range got {
		if s != got[0] {
			t.Fatalf("caller %d got a different *Site than caller 0", g)
		}
	}
	if s := w.Site("b.simtest"); s != got[0] || src.loads.Load() != 1 {
		t.Errorf("a later touch got a new *Site or decoded again (%d loads)", src.loads.Load())
	}
	if s := w.Site("z.simtest"); s != nil {
		t.Errorf("Site of a host the source lacks = %+v, want nil", s)
	}
}
