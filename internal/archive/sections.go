package archive

import (
	"errors"
	"fmt"
)

// The archive's one stored representation (DESIGN §3.6): nine byte
// sections over one string arena — the CDX index (index.go), the
// snapshot keys and rows and the latency overrides (snapshots.go), and
// the capture prefilter (prefilter.go). Freeze builds them on the heap,
// Export hands them to SavePaged, and Open serves a paged file's.

// Sections is the frozen archive as stored. Strings are (u32 offset,
// u32 length) references into Arena; offset 0 is reserved, so (0, 0)
// is "".
type Sections struct {
	// The CDX index: cdxhosts, cdxdata, cdxaux, bulk, domains.
	Hosts, Data, Aux, Bulk, Domains []byte
	// The snapshot store: snapkeys, snaprows, latency, prefilter.
	SnapKeys, SnapRows, Latency, Prefilter []byte
	Arena                                  string
}

// Open checks the sections' record-level structure — counts and record
// sizes, O(1), no record is read — and returns a frozen Archive serving
// every read from them. A record's extents are checked when a read
// follows them, so a damaged record reads as absent instead of a read
// outside its section; Verify checks them all.
func Open(s Sections) (*Archive, error) {
	a := &Archive{opened: true}
	if err := a.open(s); err != nil {
		return nil, err
	}
	a.frozen.Store(true)
	return a, nil
}

// open installs the readers over s; the caller then marks a frozen.
func (a *Archive) open(s Sections) (err error) {
	for _, c := range []struct {
		name string
		b    []byte
		size int
	}{{"cdxhosts", s.Hosts, CDXHostRecSize}, {"bulk", s.Bulk, bulkRecSize},
		{"snapkeys", s.SnapKeys, snapKeyRecSize}, {"snaprows", s.SnapRows, snapRowRecSize}, {"latency", s.Latency, latencyRecSize}} {
		if len(c.b)%c.size != 0 {
			return fmt.Errorf("section %q: length %d is not a multiple of its %d-byte record size", c.name, len(c.b), c.size)
		}
	}
	if a.cdx, err = openCDX(s); err != nil {
		return err
	}
	if a.prefilter, err = openPrefilter(s.Prefilter); err != nil {
		return err
	}
	a.snaps = &snapIndex{keys: s.SnapKeys, rows: s.SnapRows, lat: s.Latency, arena: s.Arena}
	a.prefilterOn.Store(a.prefilter != nil)
	return nil
}

// Verify checks every record extent of a frozen archive's sections and
// names the section of the first damaged record. A mutable archive has
// no sections to check.
func (a *Archive) Verify() error {
	if !a.frozen.Load() {
		return nil
	}
	if err := a.cdx.verify(); err != nil {
		return err
	}
	return a.snaps.verify()
}

// Export returns the frozen archive's sections, with every string they
// reference and its arena offset, so a serialiser can append further
// strings to the same arena and still store each string once. It
// freezes the archive first. An archive Open serves from a file's
// sections cannot export: copy that file instead.
func (a *Archive) Export() (Sections, map[string]uint32, error) {
	if a.opened {
		return Sections{}, nil, errors.New("archive: Export: the archive serves a file's sections; copy that file instead")
	}
	a.Freeze()
	x, s := a.cdx, a.cdx.s
	refs := make(map[string]uint32)
	ref := func(b []byte, off int) {
		if str := x.str(b, off); str != "" {
			refs[str] = uint32(u32(b, off))
		}
	}
	for rec := 0; rec < x.numHosts; rec++ {
		ref(s.Hosts, rec*CDXHostRecSize)
		var r hostRows
		_ = x.rows(rec, &r) // Freeze's own records fit
		for p := 0; p < r.n; p++ {
			refs[r.path(p)] = uint32(u32(s.Data, r.data+4*p))
		}
		table, n, _, _, _ := r.keys()
		for i := 0; i < n; i++ {
			ref(s.Aux, table+16*i)
		}
	}
	for i := 0; i < x.numBulk; i++ {
		ref(s.Bulk, i*bulkRecSize)
	}
	for i := 0; i < x.numDomains; i++ {
		ref(s.Domains, 4+16*i)
	}
	for off := 0; off < len(s.SnapKeys); off += snapKeyRecSize {
		ref(s.SnapKeys, off)
	}
	for off := 0; off < len(s.SnapRows); off += snapRowRecSize {
		ref(s.SnapRows, off)
		ref(s.SnapRows, off+16)
		ref(s.SnapRows, off+24)
	}
	for off := 0; off < len(s.Latency); off += latencyRecSize {
		ref(s.Latency, off)
	}
	delete(refs, "")
	return s, refs, nil
}
