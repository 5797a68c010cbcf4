package simclock

import (
	"sync"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(FromDate(2022, 3, 15))
	if got := c.Now(); got != FromDate(2022, 3, 15) {
		t.Fatalf("Now = %v", got)
	}
	if err := c.AdvanceTo(FromDate(2022, 1, 1)); err == nil {
		t.Error("AdvanceTo a past day should be rejected")
	}
	if err := c.AdvanceTo(FromDate(2022, 4, 1)); err != nil {
		t.Errorf("AdvanceTo forward: %v", err)
	}
	if got := c.Now(); got != FromDate(2022, 4, 1) {
		t.Errorf("Now after AdvanceTo = %v", got)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Day(0)
			for j := Day(1); j <= 100; j++ {
				c.AdvanceTo(j) //nolint:errcheck // a racing goroutine may already be past j
				now := c.Now()
				if now < j || now < last {
					t.Errorf("Now = %v after AdvanceTo(%v), previously %v: time went back", now, j, last)
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 100 {
		t.Errorf("after concurrent advances to day 100, Now = %v", got)
	}
}
