package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestAppendAssignsSeqs(t *testing.T) {
	j := New()
	a := j.Append(Entry{URL: "http://a.simtest/1", Old: "alive", New: "dead"})
	b := j.Append(Entry{URL: "http://b.simtest/2", Old: "dead", New: "alive", Seq: 999})
	if a.Seq != 1 || b.Seq != 2 {
		t.Fatalf("seqs = %d, %d (caller-provided seq must be overwritten)", a.Seq, b.Seq)
	}
	if j.Len() != 2 || j.LastSeq() != 2 {
		t.Errorf("len=%d lastSeq=%d", j.Len(), j.LastSeq())
	}
	if j.Bytes() != 0 {
		t.Errorf("in-memory journal reports %d bytes", j.Bytes())
	}
}

func TestAfter(t *testing.T) {
	j := New()
	for i := 0; i < 5; i++ {
		j.Append(Entry{URL: "http://x.simtest/", Old: "alive", New: "dead"})
	}
	if got := j.After(0); len(got) != 5 || got[0].Seq != 1 {
		t.Fatalf("After(0) = %+v", got)
	}
	if got := j.After(3); len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("After(3) = %+v", got)
	}
	if got := j.After(5); len(got) != 0 {
		t.Fatalf("After(last) = %+v", got)
	}
	if got := j.After(99); len(got) != 0 {
		t.Fatalf("After(beyond) = %+v", got)
	}
	// After returns a copy: mutating it must not corrupt the journal.
	got := j.After(0)
	got[0].URL = "clobbered"
	if j.After(0)[0].URL != "http://x.simtest/" {
		t.Error("After exposed internal storage")
	}
}

func TestFileSinkAndRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flips.ndjson")

	j, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Entry{Day: 6648, Date: "2022-03-15", URL: "http://a.simtest/1", Old: "alive", New: "dead", Suspect: true, Articles: []string{"Alpha"}})
	j.Append(Entry{Day: 6660, Date: "2022-03-27", URL: "http://a.simtest/1", Old: "dead", New: "alive", Category: "200 (functional)"})
	if j.Err() != nil {
		t.Fatalf("sink error: %v", j.Err())
	}
	if j.Bytes() <= 0 {
		t.Error("file journal reports zero bytes")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line must be standalone-parseable NDJSON.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []Entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 || lines[0].Seq != 1 || lines[1].Seq != 2 {
		t.Fatalf("file lines = %+v", lines)
	}
	if !lines[0].Suspect || lines[0].Articles[0] != "Alpha" {
		t.Errorf("entry 0 round-trip = %+v", lines[0])
	}

	// Reopening restores history and continues the sequence.
	j2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastSeq() != 2 || j2.Len() != 2 {
		t.Fatalf("restart: lastSeq=%d len=%d", j2.LastSeq(), j2.Len())
	}
	e := j2.Append(Entry{URL: "http://b.simtest/2", Old: "alive", New: "dead"})
	if e.Seq != 3 {
		t.Errorf("post-restart seq = %d, want 3", e.Seq)
	}
	if got := j2.After(1); len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Errorf("After(1) across restart = %+v", got)
	}
}

func TestOpenFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(path, []byte("{\"seq\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("corrupt journal should fail to open")
	}
}

// TestOpenFileTruncatesTornTail: a crash mid-append leaves a final
// record cut short; the next boot drops exactly those bytes and carries
// on from the last complete record.
func TestOpenFileTruncatesTornTail(t *testing.T) {
	complete := "{\"seq\":1,\"url\":\"http://a.simtest/1\"}\n{\"seq\":2,\"url\":\"http://a.simtest/2\"}\n"
	for name, tail := range map[string]string{
		"cut mid-record":         `{"seq":3,"url":"http://a.sim`,
		"cut before the newline": `{"seq":3,"url":"http://a.simtest/3"}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.ndjson")
			if err := os.WriteFile(path, []byte(complete+tail), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenFile(path)
			if err != nil {
				t.Fatalf("a torn final record must not brick the boot: %v", err)
			}
			// The cut-before-newline record is whole and stays.
			want := int64(2)
			if json.Valid([]byte(tail)) {
				want = 3
			}
			if j.LastSeq() != want || j.Len() != int(want) {
				t.Fatalf("reopened at seq %d with %d entries, want %d", j.LastSeq(), j.Len(), want)
			}
			if e := j.Append(Entry{URL: "http://b.simtest/next"}); e.Seq != want+1 {
				t.Errorf("next append got seq %d, want %d", e.Seq, want+1)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			// What is on disk is again a clean journal, sized as reported.
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) != j.Bytes() {
				t.Errorf("file holds %d bytes, journal reports %d", len(raw), j.Bytes())
			}
			j2, err := OpenFile(path)
			if err != nil {
				t.Fatalf("repaired journal does not reopen: %v\n%s", err, raw)
			}
			defer j2.Close()
			if j2.LastSeq() != want+1 || j2.Len() != int(want+1) {
				t.Errorf("repaired journal reopened at seq %d with %d entries, want %d", j2.LastSeq(), j2.Len(), want+1)
			}
		})
	}
}

// TestOpenFileRejectsMidFileCorruption: an unparsable line with data
// after it is corruption, not a torn tail, and so is a seq that does not
// increase — refuse, and leave the file alone.
func TestOpenFileRejectsMidFileCorruption(t *testing.T) {
	for name, content := range map[string]string{
		"followed by a record":    "{\"seq\":1}\nnot json\n{\"seq\":2}\n",
		"followed by a torn tail": "{\"seq\":1}\nnot json\n{\"seq\":2",
		"seq going backwards":     "{\"seq\":1}\n{\"seq\":5}\n{\"seq\":3}\n",
		"seq repeated":            "{\"seq\":1}\n{\"seq\":1}\n",
		"seq zero":                "{\"seq\":0}\n",
		"last seq going back":     "{\"seq\":2}\n{\"seq\":1}",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ndjson")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenFile(path); err == nil {
				t.Fatal("mid-file corruption should fail to open")
			}
			if raw, _ := os.ReadFile(path); string(raw) != content {
				t.Errorf("refused journal was modified: %q", raw)
			}
		})
	}
}

func TestConcurrentAppend(t *testing.T) {
	j := New()
	const workers, per = 8, 50
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				j.Append(Entry{URL: "http://x.simtest/", Old: "alive", New: "dead"})
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if j.Len() != workers*per || j.LastSeq() != workers*per {
		t.Fatalf("len=%d lastSeq=%d", j.Len(), j.LastSeq())
	}
	seen := map[int64]bool{}
	for _, e := range j.After(0) {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestWindowEviction: a bounded window retains at least the last n
// entries; After over the evicted range silently shrinks (documented),
// while LastSeq keeps counting every append.
func TestWindowEviction(t *testing.T) {
	j := New()
	j.SetWindow(2)
	for i := 0; i < 10; i++ {
		j.Append(Entry{URL: "http://w.example/"})
	}
	if j.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d, want 10", j.LastSeq())
	}
	got := j.After(0)
	if len(got) < 2 || got[len(got)-1].Seq != 10 {
		t.Fatalf("After(0) over a 2-entry window = %d entries ending at seq %d", len(got), got[len(got)-1].Seq)
	}
	if len(got) > 3 { // window + window/4 slack
		t.Fatalf("window 2 retained %d entries", len(got))
	}
}

// TestReplayWithinWindow behaves exactly like After.
func TestReplayWithinWindow(t *testing.T) {
	j := New()
	for i := 0; i < 5; i++ {
		j.Append(Entry{URL: "http://w.example/"})
	}
	got, err := j.Replay(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 3 {
		t.Fatalf("Replay(2) = %d entries starting at %d, want 3 starting at 3", len(got), got[0].Seq)
	}
}

// TestReplayTruncatedInMemory: an in-memory journal whose window has
// evicted the requested range must answer a TruncatedError naming the
// oldest retained seq — never silently skip the gap.
func TestReplayTruncatedInMemory(t *testing.T) {
	j := New()
	j.SetWindow(2)
	for i := 0; i < 10; i++ {
		j.Append(Entry{URL: "http://w.example/"})
	}
	_, err := j.Replay(1)
	var trunc *TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("Replay(1) past the window = %v, want *TruncatedError", err)
	}
	if trunc.RequestedSeq != 1 || trunc.OldestSeq <= 2 {
		t.Fatalf("TruncatedError = %+v", trunc)
	}
	// A cursor at the window edge still replays.
	if _, err := j.Replay(j.LastSeq() - 1); err != nil {
		t.Fatalf("Replay inside the window: %v", err)
	}
}

// TestReplayFromDisk: a file-backed journal re-reads its sink for
// cursors older than the in-memory window, returning the complete
// suffix in order.
func TestReplayFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flips.ndjson")
	j, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetWindow(2)
	for i := 0; i < 10; i++ {
		j.Append(Entry{URL: "http://w.example/", Day: i})
	}
	got, err := j.Replay(0)
	if err != nil {
		t.Fatalf("Replay(0) from disk: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("Replay(0) = %d entries, want 10", len(got))
	}
	for i, e := range got {
		if e.Seq != int64(i+1) || e.Day != i {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Mid-stream cursor older than the window also comes from disk.
	mid, err := j.Replay(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 6 || mid[0].Seq != 5 {
		t.Fatalf("Replay(4) = %d entries starting at %d", len(mid), mid[0].Seq)
	}
}

// TestReplayLongEntryFromDisk: Replay reads the file's records as
// OpenFile does, of any length: a 2 MiB entry evicted from a window of
// 1 comes back from disk whole.
func TestReplayLongEntryFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flips.ndjson")
	j, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetWindow(1)
	articles := make([]string, 1<<16)
	for i := range articles {
		articles[i] = fmt.Sprintf("Article %026d", i)
	}
	long := j.Append(Entry{URL: "http://w.example/long", New: "dead", Articles: articles})
	j.Append(Entry{URL: "http://w.example/next", New: "dead"})
	if n := j.Len(); n != 1 {
		t.Fatalf("window of 1 holds %d entries", n)
	}
	got, err := j.Replay(0)
	if err != nil {
		t.Fatalf("Replay(0) over a %d-byte journal: %v", j.Bytes(), err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], long) || got[1].URL != "http://w.example/next" {
		t.Fatalf("Replay(0) = %d entries; the first has %d articles", len(got), len(got[0].Articles))
	}
	if j.Bytes() < 2<<20 {
		t.Fatalf("the journal is %d bytes; the long entry should pass 2 MiB", j.Bytes())
	}
}

// TestReplayAheadOfJournal: a cursor past the last seq — one issued by
// a journal this one does not continue — is an AheadError naming both
// seqs, not an empty replay that would let live seqs below the cursor
// pass for ones the client already holds.
func TestReplayAheadOfJournal(t *testing.T) {
	j := New()
	j.Append(Entry{URL: "http://w.example/1"})
	j.Append(Entry{URL: "http://w.example/2"})
	got, err := j.Replay(500)
	var ahead *AheadError
	if !errors.As(err, &ahead) {
		t.Fatalf("Replay(500) on a 2-entry journal = %d entries, %v; want *AheadError", len(got), err)
	}
	if ahead.RequestedSeq != 500 || ahead.LastSeq != 2 {
		t.Fatalf("AheadError = %+v", ahead)
	}
	if msg := err.Error(); !strings.Contains(msg, "500") || !strings.Contains(msg, "2") {
		t.Errorf("message %q does not name both seqs", msg)
	}
	// The last seq itself is a valid cursor with nothing after it.
	if got, err := j.Replay(2); err != nil || len(got) != 0 {
		t.Fatalf("Replay(LastSeq) = %d entries, %v", len(got), err)
	}
}
