package core

import (
	"runtime"
	"testing"
)

// TestCollectAllocCeiling keeps a cold Collect, the bulk of a study's
// boot, from allocating its way back: the category listing, each
// article's first load and each history fold. One Collect of a freshly
// opened Scale(0.05) seed-1 bundle at fan-out 1 took 2 780 objects and
// 824 320 bytes while the wiki kept loads and folds in maps under its
// write lock; it takes 3 175 and 738 384 now, one ArticleHistory per
// fold more and no map growth, and the ceilings are those + 5 %. The
// counts repeat exactly from run to run, race detector included.
// Keeping a digest of each revision the fold reads (citedLinks through
// Links) takes 10 628 objects and 1 370 192 bytes.
func TestCollectAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	const maxObjects, maxBytes = 3_334, 775_304
	s := openPagedStudy(t, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs := s.Collect()
	runtime.ReadMemStats(&after)
	if len(recs) == 0 {
		t.Fatal("Collect found no records")
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("cold Collect at Scale(0.05) seed 1, fan-out 1: %d objects, %d bytes", objects, bytes)
	if objects > maxObjects {
		t.Errorf("Collect allocated %d objects, ceiling %d", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("Collect allocated %d bytes, ceiling %d", bytes, maxBytes)
	}
}
