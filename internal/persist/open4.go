package persist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"unsafe"

	"permadead/internal/archive"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

// OpenPaged maps a format-v4 file and returns a bundle whose world,
// wiki, and archive serve lazily from the mapping: startup cost is
// bounds validation plus a handful of tiny header sections, not the
// universe size, and resident memory grows with the touched working
// set. Strings handed out by the bundle alias the mapping — keep the
// bundle open while using them, and Close it when done.
func OpenPaged(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: map %s: %w", path, err)
	}
	closer := closerFunc(func() error {
		err := unmap()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	b, err := openPagedBytes(data, closer)
	if err != nil {
		closer.Close()
		return nil, err
	}
	return b, nil
}

// VerifyPaged checks a format-v4 file end to end: superblock and
// directory sanity, section bounds, per-section CRC-64 checksums,
// record-level structure, the extents of every archive record
// (archive.Verify: cdxhosts, snapkeys), wikidir and category record,
// and a full decode of every site and article record against the
// length its directory entry recorded. The returned error names the
// first failing section.
// It reads the whole file — 'inspect -load' runs it; the serving
// startup path does not.
func VerifyPaged(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return fmt.Errorf("persist: map %s: %w", path, err)
	}
	defer unmap()

	sec, err := parseSections(data)
	if err != nil {
		return err
	}
	for i := 0; i < numSections; i++ {
		off := superblockSize + i*dirEntrySize
		kind := int(rdU32(data, off))
		want := rdU64(data, off+24)
		if got := crc64.Checksum(sec[kind], crcTable); got != want {
			return fmt.Errorf("persist: section %q: checksum mismatch (file corrupt)", sectionNames[kind])
		}
	}
	p, arch, err := newPagedStore(sec)
	if err != nil {
		return err
	}
	if err := arch.Verify(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	for i := 0; i < p.numSites; i++ {
		if _, err := p.siteAt(i, p.siteHostAt(i)); err != nil {
			return err
		}
	}
	for i := 0; i < p.numArticles; i++ {
		if _, err := p.articleAt(i, p.titleAt(i)); err != nil {
			return err
		}
	}
	for i := 0; i < p.numCats; i++ {
		if _, err := p.categoryAt(i); err != nil {
			return err
		}
	}
	return nil
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// openPagedBytes builds a lazily-served bundle over raw v4 bytes.
func openPagedBytes(data []byte, closer io.Closer) (*Bundle, error) {
	sec, err := parseSections(data)
	if err != nil {
		return nil, err
	}
	store, arch, err := newPagedStore(sec)
	if err != nil {
		return nil, err
	}

	var params worldgen.Params
	if err := gob.NewDecoder(bytes.NewReader(sec[secParams])).Decode(&params); err != nil {
		return nil, fmt.Errorf("persist: section %q: decode: %w", sectionNames[secParams], err)
	}

	world := simweb.NewWorld()
	world.SetSource(store)
	wiki := wikimedia.NewWiki()
	wiki.SetSource(store)
	return &Bundle{
		Params:  params,
		World:   world,
		Wiki:    wiki,
		Archive: arch,
		closer:  closer,
	}, nil
}

// parseSections validates the superblock and directory and slices the
// file into its sections. Bounds failures name the offending section.
func parseSections(data []byte) ([numSections][]byte, error) {
	var sec [numSections][]byte
	if len(data) < superblockSize {
		return sec, fmt.Errorf("persist: paged file too short (%d bytes) for a superblock", len(data))
	}
	if string(data[:4]) != magic4 {
		return sec, fmt.Errorf("persist: not a paged universe file (bad magic)")
	}
	if v := rdU32(data, 4); v != version4 {
		return sec, fmt.Errorf("persist: incompatible paged file: format version %d found, this build reads version %d", v, version4)
	}
	count := int(rdU32(data, 8))
	if count != numSections {
		return sec, fmt.Errorf("persist: paged file declares %d sections, this build expects %d", count, numSections)
	}
	declared := rdU64(data, 16)
	if len(data) < superblockSize+count*dirEntrySize {
		return sec, fmt.Errorf("persist: truncated paged file: %d of %d bytes, section directory cut off", len(data), declared)
	}

	seen := [numSections]bool{}
	for i := 0; i < count; i++ {
		base := superblockSize + i*dirEntrySize
		kind := int(rdU32(data, base))
		off := rdU64(data, base+8)
		length := rdU64(data, base+16)
		if kind < 0 || kind >= numSections {
			return sec, fmt.Errorf("persist: section directory entry %d has unknown kind %d", i, kind)
		}
		if seen[kind] {
			return sec, fmt.Errorf("persist: duplicate section %q in directory", sectionNames[kind])
		}
		seen[kind] = true
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			if declared > uint64(len(data)) {
				return sec, fmt.Errorf("persist: truncated paged file: %d of %d bytes; section %q extends past end of file", len(data), declared, sectionNames[kind])
			}
			return sec, fmt.Errorf("persist: section %q out of bounds (offset %d, length %d, file %d bytes)", sectionNames[kind], off, length, len(data))
		}
		sec[kind] = data[off : off+length]
	}
	for kind, ok := range seen {
		if !ok {
			return sec, fmt.Errorf("persist: section %q missing from directory", sectionNames[kind])
		}
	}
	return sec, nil
}

// newPagedStore validates record-level structure (counts and fixed
// record sizes — cheap arithmetic, no row reads) and builds the site
// and wiki store and, over the archive's nine sections, the archive
// (archive.Open checks those, and does no per-record work either).
func newPagedStore(sec [numSections][]byte) (*pagedStore, *archive.Archive, error) {
	p := &pagedStore{sec: sec}
	if a := sec[secArena]; len(a) > 0 {
		p.arena = unsafe.String(&a[0], len(a))
	}
	s := archive.Sections{Arena: p.arena}
	for _, f := range archiveSections {
		*f.field(&s) = sec[f.kind]
	}
	arch, err := archive.Open(s)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}

	recs := func(kind, recSize int) (int, error) {
		if len(sec[kind])%recSize != 0 {
			return 0, fmt.Errorf("persist: section %q: length %d is not a multiple of its %d-byte record size", sectionNames[kind], len(sec[kind]), recSize)
		}
		return len(sec[kind]) / recSize, nil
	}
	if p.numSites, err = recs(secSiteDir, siteDirRecSize); err != nil {
		return nil, nil, err
	}
	if p.numArticles, err = recs(secWikiDir, wikiDirRecSize); err != nil {
		return nil, nil, err
	}

	meta := sec[secWikiMeta]
	if len(meta) < 16 {
		return nil, nil, fmt.Errorf("persist: section %q: too short (%d bytes)", sectionNames[secWikiMeta], len(meta))
	}
	p.maxRevID = int(rdU64(meta, 0))
	p.numCats = int(rdU32(meta, 8))
	p.catTable = 16
	p.catIdx = 16 + 16*p.numCats
	if p.catIdx > len(meta) {
		return nil, nil, fmt.Errorf("persist: section %q: category table (%d entries) exceeds section length %d", sectionNames[secWikiMeta], p.numCats, len(meta))
	}
	return p, arch, nil
}
