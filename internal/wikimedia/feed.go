package wikimedia

import "sync/atomic"

// Feed is the wiki's EventStream API: it adapts the wiki's synchronous
// edit callbacks into a bounded asynchronous event queue — the
// transport shape a continuous consumer (the verdict monitor) reads
// from. Wiki edit goroutines only enqueue; the consumer only dequeues;
// neither ever blocks the other: when the buffer is full the event is
// dropped and counted rather than stalling the editor, exactly as a
// real EventStream consumer that falls behind loses events.
type Feed struct {
	ch      chan LinkEvent
	dropped atomic.Int64
	seen    atomic.Int64
}

// NewFeed returns a feed with the given buffer capacity (minimum 1).
func NewFeed(buffer int) *Feed {
	if buffer < 1 {
		buffer = 1
	}
	return &Feed{ch: make(chan LinkEvent, buffer)}
}

// Attach subscribes the feed to the wiki's link addition and removal
// events. Safe to call after content generation; only edits that
// start after Attach are observed.
func (f *Feed) Attach(w *Wiki) { w.Subscribe(f.enqueue) }

func (f *Feed) enqueue(ev LinkEvent) {
	f.seen.Add(1)
	select {
	case f.ch <- ev:
	default:
		f.dropped.Add(1)
	}
}

// Events returns the receive side of the feed.
func (f *Feed) Events() <-chan LinkEvent { return f.ch }

// Seen returns how many events have been offered to the feed.
func (f *Feed) Seen() int64 { return f.seen.Load() }

// Dropped returns how many events were discarded because the buffer
// was full.
func (f *Feed) Dropped() int64 { return f.dropped.Load() }
