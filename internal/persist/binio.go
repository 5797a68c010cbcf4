package persist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Little-endian section building and reading. The writer side appends
// into a growing byte slice; the reader side is plain offset
// arithmetic over the mapped file, so query paths never deserialize.

var le = binary.LittleEndian

// secWriter accumulates one section's bytes.
type secWriter struct {
	buf []byte
}

func (w *secWriter) u16(v uint16) { w.buf = le.AppendUint16(w.buf, v) }
func (w *secWriter) u32(v uint32) { w.buf = le.AppendUint32(w.buf, v) }
func (w *secWriter) u64(v uint64) { w.buf = le.AppendUint64(w.buf, v) }
func (w *secWriter) i32(v int)    { w.u32(uint32(int32(v))) }
func (w *secWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *secWriter) len() int { return len(w.buf) }

// pad8 pads the section to an 8-byte boundary.
func (w *secWriter) pad8() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// arena interns every string the file references. Identical strings
// share one copy; references are (offset, length) uint32 pairs.
type arena struct {
	buf []byte
	idx map[string]uint32
}

// ref interns s and returns its reference. The empty string is
// (0, 0).
func (a *arena) ref(s string) (off, ln uint32) {
	if s == "" {
		return 0, 0
	}
	if o, ok := a.idx[s]; ok {
		return o, uint32(len(s))
	}
	o := len(a.buf)
	a.buf = append(a.buf, s...)
	a.idx[s] = uint32(o)
	return uint32(o), uint32(len(s))
}

// writeRef appends a string reference to w.
func (w *secWriter) writeRef(a *arena, s string) {
	off, ln := a.ref(s)
	w.u32(off)
	w.u32(ln)
}

// check verifies the arena still fits 32-bit references.
func (a *arena) check() error {
	if len(a.buf) > math.MaxUint32 {
		return fmt.Errorf("persist: string arena exceeds 4 GiB (%d bytes); format v4 uses 32-bit string references", len(a.buf))
	}
	return nil
}

// --- read side -------------------------------------------------------

// rdU16/rdU32/rdU64 read little-endian integers at a byte offset.
// Callers index into section slices whose bounds were validated at
// open time.
func rdU16(b []byte, off int) uint16 { return le.Uint16(b[off:]) }
func rdU32(b []byte, off int) uint32 { return le.Uint32(b[off:]) }
func rdU64(b []byte, off int) uint64 { return le.Uint64(b[off:]) }
func rdI32(b []byte, off int) int    { return int(int32(le.Uint32(b[off:]))) }
