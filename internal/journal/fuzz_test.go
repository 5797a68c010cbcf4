package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalOpen writes arbitrary bytes to a journal file. OpenFile
// must refuse it, or return a journal whose entries' seqs strictly
// increase and end at LastSeq, that reopens to the same entries, and
// whose next Append gets LastSeq+1.
func FuzzJournalOpen(f *testing.F) {
	const a, b, c = `{"seq":1,"day":3,"url":"http://a.simtest/1","old":"alive","new":"dead"}`,
		`{"seq":2,"day":4,"url":"http://b.simtest/2","old":"dead","new":"alive","articles":["A"]}`,
		`{"seq":3,"day":5,"url":"http://c.simtest/3","old":"alive","new":"dead","suspect":true}`
	f.Add([]byte(a + "\n" + b + "\n" + c + "\n"))            // clean
	f.Add([]byte(a + "\n" + b + "\n" + c[:len(c)/2]))        // torn tail
	f.Add([]byte(a + "\n" + b + "\n" + c))                   // cut exactly at the newline
	f.Add([]byte(a + "\n" + b[:len(b)/2] + "\n" + c + "\n")) // corrupt middle line

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenFile(path)
		if err != nil {
			return
		}
		entries, last := j.After(-1), j.LastSeq()
		if len(entries) != j.Len() {
			t.Fatalf("After(-1) = %d entries, Len = %d", len(entries), j.Len())
		}
		for i, e := range entries {
			if e.Seq <= 0 || i > 0 && e.Seq <= entries[i-1].Seq {
				t.Fatalf("entry %d has seq %d after %+v", i, e.Seq, entries[:i])
			}
		}
		if n := len(entries); n > 0 && entries[n-1].Seq != last || n == 0 && last != 0 {
			t.Fatalf("%d entries end before LastSeq %d", n, last)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		j2, err := OpenFile(path)
		if err != nil {
			t.Fatalf("an opened journal does not reopen: %v", err)
		}
		defer j2.Close()
		if again := j2.After(-1); j2.LastSeq() != last || !reflect.DeepEqual(again, entries) {
			t.Fatalf("reopened at seq %d with %+v, want seq %d with %+v", j2.LastSeq(), again, last, entries)
		}
		if e := j2.Append(Entry{URL: "http://next.simtest/"}); e.Seq != last+1 {
			t.Fatalf("next Append got seq %d, want %d", e.Seq, last+1)
		}
	})
}
