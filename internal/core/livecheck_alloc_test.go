package core

import (
	"context"
	"runtime"
	"testing"
)

// TestLiveCheckAllocCeiling keeps §3's live check from allocating its
// way back: each body is rendered into fetch's read buffer, kept as
// the result's string, and judged where it lies. One LiveCheck of the
// Scale(0.05) seed-1 sample at fan-out 1, after a warm-up run, took
// 15 376 objects and 2 183 700 bytes before that; it takes 10 814 and
// 1 462 624 now, and the ceilings are those + 5 %. The counts repeat
// to within a few from run to run, race detector included.
func TestLiveCheckAllocCeiling(t *testing.T) {
	const maxObjects, maxBytes = 11_355, 1_535_755
	s, recs := liveStudyAt(t, 1)
	run := func() {
		if err := s.LiveCheck(context.Background(), &Report{Records: recs}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("LiveCheck at Scale(0.05) seed 1, fan-out 1: %d objects, %d bytes", objects, bytes)
	if objects > maxObjects {
		t.Errorf("LiveCheck allocated %d objects, ceiling %d", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("LiveCheck allocated %d bytes, ceiling %d", bytes, maxBytes)
	}
}
