package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"permadead/internal/iabot"
	"permadead/internal/persist"
	"permadead/internal/worldgen"
)

// The paged Scale(0.05) seed-1 universe is generated and saved once;
// each caller writes the bytes to its own file and opens its own
// bundle, so every study starts with nothing faulted in.
var (
	pagedOnce  sync.Once
	pagedBytes []byte
	pagedErr   error
)

// openPagedStudy opens a fresh paged bundle of that universe and a
// study over it that collects every candidate in candidate order. The
// bundle stays open until tb ends: records alias its mapping.
func openPagedStudy(tb testing.TB, conc int) *Study {
	tb.Helper()
	pagedOnce.Do(func() {
		p := worldgen.DefaultParams().Scale(0.05)
		p.Seed = 1
		var buf bytes.Buffer
		pagedErr = persist.SavePaged(&buf, persist.FromUniverse(worldgen.Generate(p)))
		pagedBytes = buf.Bytes()
	})
	if pagedErr != nil {
		tb.Fatal(pagedErr)
	}
	path := filepath.Join(tb.TempDir(), "u.pd4")
	if err := os.WriteFile(path, pagedBytes, 0o644); err != nil {
		tb.Fatal(err)
	}
	b, err := persist.OpenPaged(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { b.Close() })
	cfg := DefaultConfig()
	cfg.SampleSize, cfg.CrawlArticles, cfg.Concurrency = 0, 0, conc
	return &Study{Config: cfg, Wiki: b.Wiki}
}

// faultInCategory loads every article of the tracking category, the
// state a second Collect over one bundle meets.
func faultInCategory(s *Study) {
	for _, t := range s.Wiki.InCategory(iabot.Category) {
		s.Wiki.Article(t)
	}
}

// TestCollectColdWarmSequential: on a paged bundle, Collect's records
// and their order are the same sequentially, on 32 workers, and on 32
// workers after every category article was faulted in.
func TestCollectColdWarmSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a universe")
	}
	want := openPagedStudy(t, 1).Collect()
	if len(want) == 0 {
		t.Fatal("sequential Collect found no records")
	}
	cold := openPagedStudy(t, 32).Collect()
	warmStudy := openPagedStudy(t, 32)
	faultInCategory(warmStudy)
	warm := warmStudy.Collect()
	for name, got := range map[string][]LinkRecord{"cold, 32 workers": cold, "warm, 32 workers": warm} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d records differ from the sequential %d", name, len(got), len(want))
		}
	}
}

// collectSink keeps BenchmarkCollect's result live.
var collectSink []LinkRecord

// BenchmarkCollect times §2.4's dataset construction on a paged bundle
// at the default concurrency: cold on a freshly opened bundle, as a
// study's first Collect meets it, and warm with every category article
// already faulted in, as Run's Collect after a boot-time one does. The
// warm leg shows what listing the category costs once its articles are
// in memory.
func BenchmarkCollect(b *testing.B) {
	conc := DefaultConfig().Concurrency
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := openPagedStudy(b, conc)
			b.StartTimer()
			collectSink = s.Collect()
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := openPagedStudy(b, conc)
		faultInCategory(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			collectSink = s.Collect()
		}
	})
}
