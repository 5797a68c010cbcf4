// Package journal is the monitor's append-only verdict-delta log: one
// NDJSON line per verdict flip, each stamped with a monotonically
// increasing sequence number. The sequence space does double duty — it
// is the durable replay cursor (a restarted reader resumes from the
// last seq it processed) and the SSE event-ID space (Last-Event-ID on
// /v1/stream/verdicts is a journal seq, and resume replays exactly the
// entries after it).
//
// The journal is deliberately dumber than a database: appends only,
// never rewrites, and the file form is plain NDJSON so shell tooling
// (jq, wc -l, tail -f) works on it directly. Reopening an existing
// file restores the sequence counter from its last line, so seqs stay
// monotonic across process restarts.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// TruncatedError reports a replay cursor that predates the in-memory
// window of a journal with no file sink: the entries between
// RequestedSeq and OldestSeq-1 were evicted and cannot be recovered.
// File-backed journals never return it — they re-read the file
// instead.
type TruncatedError struct {
	// RequestedSeq is the cursor the caller tried to resume after.
	RequestedSeq int64
	// OldestSeq is the oldest entry still held in memory.
	OldestSeq int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("journal: entries after seq %d are gone (oldest retained is %d); the in-memory window was exceeded and no file sink exists",
		e.RequestedSeq, e.OldestSeq)
}

// AheadError reports a replay cursor past the journal's last seq: it
// was issued by a journal whose entries this one does not hold (say, an
// in-memory journal before a restart), so resuming from it would skip
// every flip numbered at or below it without a signal.
type AheadError struct {
	// RequestedSeq is the cursor the caller tried to resume after.
	RequestedSeq int64
	// LastSeq is the journal's most recently assigned seq.
	LastSeq int64
}

func (e *AheadError) Error() string {
	return fmt.Sprintf("journal: cursor %d is ahead of the last seq %d; it was issued by a journal this one does not continue",
		e.RequestedSeq, e.LastSeq)
}

// Entry is one verdict flip. Old and New are verdict strings owned by
// the monitor ("alive", "dead"; "unknown" never appears in a journal —
// initial verdict assignment is not a flip).
type Entry struct {
	// Seq is the entry's position in the journal, starting at 1.
	// Assigned by Append; any caller-provided value is overwritten.
	Seq int64 `json:"seq"`
	// Day is the simulated day the flip was observed.
	Day int `json:"day"`
	// Date is Day rendered as YYYY-MM-DD for human readers.
	Date string `json:"date"`
	URL  string `json:"url"`
	Old  string `json:"old"`
	New  string `json:"new"`
	// Category is the classifier category behind the new verdict
	// (e.g. "200 (functional)", "404").
	Category string `json:"category,omitempty"`
	// Suspect marks a dead verdict measured while the site had an
	// active transient-fault window: the flip may be the checker
	// catching the site on a bad day, and a re-check is already
	// scheduled for when the window clears.
	Suspect bool `json:"suspect,omitempty"`
	// Articles lists the watched articles citing the URL at flip time.
	Articles []string `json:"articles,omitempty"`
}

// Journal accumulates entries in memory and, when opened over a file,
// mirrors each append as one NDJSON line.
type Journal struct {
	mu      sync.Mutex
	entries []Entry
	seq     int64
	path    string
	file    *os.File
	w       *bufio.Writer
	bytes   int64
	err     error // first write error, sticky
	// window, when > 0, bounds the in-memory entry slice: once the
	// slice outgrows it, the oldest entries are evicted (they stay on
	// disk for file-backed journals). 0 keeps everything in memory.
	window int
}

// New returns an in-memory journal (no file sink).
func New() *Journal {
	return &Journal{}
}

// OpenFile opens (creating if needed) an NDJSON journal file in append
// mode. Existing entries are loaded so the sequence counter continues
// from the last line and After can replay history from before the
// restart.
//
// A crash mid-append leaves a final record cut short. An unparsable
// last line with no trailing newline is that torn tail: the file is
// truncated back to the end of the last complete record (the dropped
// byte count is reported once on stderr) and the journal continues from
// that record's seq. An unparsable line anywhere else is corruption,
// and refuses to open; so is a seq that is not above the one before it
// (the first must be positive), which would replay flips out of order.
func OpenFile(path string) (*Journal, error) {
	j := &Journal{}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	keep, err := readRecords(path, data, func(e Entry) {
		j.entries = append(j.entries, e)
		j.seq = e.Seq
	})
	if err != nil {
		return nil, err
	}
	if keep < len(data) {
		fmt.Fprintf(os.Stderr, "journal %s: dropped %d bytes of a torn final record after seq %d\n",
			path, len(data)-keep, j.seq)
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, fmt.Errorf("journal %s: truncating torn tail: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.bytes = int64(keep)
	if keep > 0 && data[keep-1] != '\n' {
		// The crash cut exactly the record's newline: the record parsed
		// and stays, but the next append must start its own line.
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal %s: terminating last record: %w", path, err)
		}
		j.bytes++
	}
	j.path = path
	j.file = f
	j.w = bufio.NewWriter(f)
	return j, nil
}

// readRecords parses data, a journal file's bytes, one NDJSON record
// per line, and calls fn with each entry in order. It returns the length
// of the prefix of data holding whole records: less than len(data) only
// when the last line has no newline and does not parse, a record torn
// by a crash mid-append. An unparsable line anywhere else is
// corruption, and so is a seq that is not above the one before it (the
// first must be positive), which would replay flips out of order. A
// record may be of any length, as Append writes it.
func readRecords(path string, data []byte, fn func(Entry)) (keep int, err error) {
	var last int64
	for off := 0; off < len(data); {
		line, next := data[off:], len(data)
		nl := bytes.IndexByte(line, '\n')
		if nl >= 0 {
			line, next = line[:nl], off+nl+1
		}
		if len(line) > 0 {
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				if nl >= 0 {
					return 0, fmt.Errorf("journal %s: corrupt line after seq %d: %w", path, last, err)
				}
				return off, nil
			}
			if e.Seq <= last {
				return 0, fmt.Errorf("journal %s: corrupt seq %d after seq %d (seqs must increase)", path, e.Seq, last)
			}
			fn(e)
			last = e.Seq
		}
		off = next
	}
	return len(data), nil
}

// SetWindow bounds the in-memory entry slice to roughly the last n
// entries (0 = unbounded, the default). Entries evicted from a
// file-backed journal remain replayable from disk; evicting from an
// in-memory journal makes Replay cursors older than the window answer
// a TruncatedError. Call before concurrent use.
func (j *Journal) SetWindow(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < 0 {
		n = 0
	}
	j.window = n
	j.trimLocked()
}

// trimLocked enforces the in-memory window. Eviction happens in
// batches of ~window/4 so a journal at its cap does not copy the whole
// slice on every append: at most window+window/4 entries are resident,
// and at least the last `window` are always retained.
func (j *Journal) trimLocked() {
	if j.window <= 0 || len(j.entries) <= j.window+j.window/4 {
		return
	}
	keep := j.entries[len(j.entries)-j.window:]
	j.entries = append(j.entries[:0:0], keep...)
}

// Append assigns the next sequence number to e, records it, and (for
// file-backed journals) writes and flushes its NDJSON line. Returns
// the entry with its seq filled in. Append never fails the caller: a
// file write error is latched into Err and the in-memory log keeps
// going, so a full disk degrades durability, not monitoring.
func (j *Journal) Append(e Entry) Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	j.entries = append(j.entries, e)
	j.trimLocked()
	if j.w != nil && j.err == nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = j.w.Write(line)
			if err == nil {
				err = j.w.Flush()
			}
		}
		if err != nil {
			j.err = err
		} else {
			j.bytes += int64(len(line))
		}
	}
	return e
}

// After returns a copy of every in-memory entry with Seq > seq, in
// order. Pass 0 for the full history. With an in-memory window set,
// entries older than the window are absent from the result — callers
// that must not silently skip history (SSE resume) should use Replay,
// which detects the gap.
func (j *Journal) After(seq int64) []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Seqs are dense (1..n) in a single process and monotone across
	// restarts, so binary-search style math is unnecessary: scan from
	// the end for the common "recent cursor" case.
	i := len(j.entries)
	for i > 0 && j.entries[i-1].Seq > seq {
		i--
	}
	out := make([]Entry, len(j.entries)-i)
	copy(out, j.entries[i:])
	return out
}

// Replay returns every entry with Seq > seq, in order, with a
// no-silent-gap guarantee: if the cursor predates the in-memory window
// the missing prefix is re-read from the file sink, and when there is
// no file to read from (or the sink latched a write error before the
// cursor's entries were evicted), a *TruncatedError names the oldest
// sequence still available so the caller can tell its client the
// cursor is gone rather than skipping flips. A cursor past LastSeq is
// an *AheadError.
func (j *Journal) Replay(seq int64) ([]Entry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.seq {
		return nil, &AheadError{RequestedSeq: seq, LastSeq: j.seq}
	}
	if len(j.entries) == 0 || j.entries[0].Seq <= seq+1 {
		// Everything requested is still in memory (or there is nothing
		// at all): the in-memory path answers exactly.
		i := len(j.entries)
		for i > 0 && j.entries[i-1].Seq > seq {
			i--
		}
		out := make([]Entry, len(j.entries)-i)
		copy(out, j.entries[i:])
		return out, nil
	}
	if j.path == "" || j.err != nil {
		return nil, &TruncatedError{RequestedSeq: seq, OldestSeq: j.entries[0].Seq}
	}
	// The cursor predates the window: rebuild the requested suffix from
	// the file sink. Appends are mirrored to disk synchronously (Append
	// flushes), so the file holds every entry up to j.seq. Reading under
	// the mutex keeps the result consistent with concurrent appends;
	// resume is a reconnect-time cost, not a hot path.
	if j.w != nil {
		if err := j.w.Flush(); err != nil {
			j.err = err
			return nil, fmt.Errorf("journal: flushing before replay: %w", err)
		}
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("journal: reopening %s for replay: %w", j.path, err)
	}
	var out []Entry
	if _, err := readRecords(j.path, data, func(e Entry) {
		if e.Seq > seq {
			out = append(out, e)
		}
	}); err != nil {
		return nil, fmt.Errorf("replaying: %w", err)
	}
	return out, nil
}

// Len returns the number of entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// LastSeq returns the most recently assigned sequence number (0 if
// empty).
func (j *Journal) LastSeq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Bytes returns the size of the file sink in bytes (0 for in-memory
// journals).
func (j *Journal) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// Err returns the first file write error, if any. In-memory operation
// is unaffected by a sink error.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the file sink, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	j.file, j.w = nil, nil
	if j.err == nil {
		j.err = err
	}
	return err
}
