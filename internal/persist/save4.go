package persist

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc64"
	"io"
	"sort"

	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
)

// crcTable is the CRC-64 polynomial every section checksum uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// SavePaged writes the bundle to w in persist format v4 — the paged
// layout OpenPaged serves queries from without materializing the
// universe. Ordering is deterministic: directories are sorted by
// their lookup key. The archive's nine sections are copied as Freeze
// built them (archive.Export) — the archive is frozen as a side effect,
// saving implies generation is complete — and the arena they reference
// is extended with the site and wiki strings (DESIGN §3.6).
//
// A bundle that is itself serving from a paged file cannot be re-saved;
// copy the file instead.
func SavePaged(w io.Writer, b *Bundle) error {
	s, refs, err := b.Archive.Export()
	if err != nil {
		return fmt.Errorf("persist: SavePaged: %w", err)
	}
	secs := make([][]byte, numSections)
	for _, f := range archiveSections {
		secs[f.kind] = *f.field(&s)
	}
	ar := &arena{buf: []byte(s.Arena), idx: refs}

	// params: small, structured, and already gob-friendly.
	var pbuf bytes.Buffer
	params := b.Params
	params.Progress = nil
	if err := gob.NewEncoder(&pbuf).Encode(&params); err != nil {
		return fmt.Errorf("persist: encode params: %w", err)
	}
	secs[secParams] = pbuf.Bytes()

	encodeSites(secs, ar, b.World)
	encodeWiki(secs, ar, b.Wiki)

	if err := ar.check(); err != nil {
		return err
	}
	secs[secArena] = ar.buf

	// Assemble: superblock, directory, 8-aligned sections in kind order.
	hdrSize := superblockSize + numSections*dirEntrySize
	off := align8(hdrSize)
	type dirEntry struct {
		off, length, crc uint64
	}
	dir := make([]dirEntry, numSections)
	for k := range secs {
		dir[k] = dirEntry{
			off:    uint64(off),
			length: uint64(len(secs[k])),
			crc:    crc64.Checksum(secs[k], crcTable),
		}
		off = align8(off + len(secs[k]))
	}
	fileSize := uint64(off)

	bw := bufio.NewWriterSize(w, saveBufferSize)
	hdr := &secWriter{}
	hdr.buf = append(hdr.buf, magic4...)
	hdr.u32(version4)
	hdr.u32(numSections)
	hdr.u32(0)
	hdr.u64(fileSize)
	for k, e := range dir {
		hdr.u32(uint32(k))
		hdr.u32(0)
		hdr.u64(e.off)
		hdr.u64(e.length)
		hdr.u64(e.crc)
	}
	hdr.pad8()
	if _, err := bw.Write(hdr.buf); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	var pad [8]byte
	for k, s := range secs {
		if _, err := bw.Write(s); err != nil {
			return fmt.Errorf("persist: write section %s: %w", sectionNames[k], err)
		}
		if p := align8(len(s)) - len(s); p > 0 {
			if _, err := bw.Write(pad[:p]); err != nil {
				return fmt.Errorf("persist: write section %s: %w", sectionNames[k], err)
			}
		}
	}
	return bw.Flush()
}

func align8(n int) int { return (n + 7) &^ 7 }

func encodeSites(secs [][]byte, ar *arena, world *simweb.World) {
	dirW := &secWriter{}
	blobW := &secWriter{}
	for _, h := range world.Hostnames() {
		s := world.Site(h)
		blobW.pad8()
		base := blobW.len()
		encodeSite(blobW, ar, s)
		dirW.writeRef(ar, h)
		dirW.u64(uint64(base))
		dirW.u32(uint32(blobW.len() - base))
		dirW.u32(0)
	}
	secs[secSiteDir] = dirW.buf
	secs[secSiteBlobs] = blobW.buf
}

func encodeSite(w *secWriter, ar *arena, s *simweb.Site) {
	w.i32(s.Rank)
	w.i32(int(s.Created))
	w.i32(int(s.DNSDiesAt))
	w.i32(int(s.TimeoutFrom))
	w.i32(int(s.ParkedAt))
	w.i32(int(s.GeoBlockedFrom))
	w.i32(int(s.OutageFrom))
	w.i32(int(s.OutageTo))
	w.u16(uint16(s.ErrorStyle))
	w.u16(uint16(s.ErrorStyleAfter))
	w.i32(int(s.ErrorStyleSwitchAt))
	w.writeRef(ar, s.LoginPath)
	w.u64(s.Seed)

	w.u32(uint32(len(s.Faults)))
	for _, f := range s.Faults {
		w.i32(int(f.From))
		w.i32(int(f.To))
		w.u32(uint32(f.Mode))
		w.f64(f.Rate)
		w.i32(f.RetryAfterSec)
		w.u32(0)
		w.u64(f.Seed)
	}

	var pages []*simweb.Page
	s.EachPage(func(p *simweb.Page) { pages = append(pages, p) })
	sort.Slice(pages, func(i, j int) bool { return pages[i].Path < pages[j].Path })
	w.u32(uint32(len(pages)))
	for _, p := range pages {
		w.writeRef(ar, p.Path)
		w.i32(int(p.Created))
		w.i32(int(p.DeletedAt))
		w.i32(int(p.RestoredAt))
		w.i32(int(p.MovedAt))
		w.writeRef(ar, p.NewPath)
		w.i32(int(p.RedirectFrom))
		w.i32(int(p.RedirectUntil))
		w.writeRef(ar, p.Content)
		w.writeRef(ar, p.Title)
	}
}

func encodeWiki(secs [][]byte, ar *arena, wiki *wikimedia.Wiki) {
	dirW := &secWriter{}
	blobW := &secWriter{}
	metaW := &secWriter{}
	maxRev := 0
	catIdx := make(map[string][]uint32)

	titles := wiki.Titles()
	for i, t := range titles {
		a := wiki.Article(t)
		blobW.pad8()
		base := blobW.len()
		blobW.u32(uint32(len(a.Revisions)))
		for _, rev := range a.Revisions {
			blobW.u32(uint32(rev.ID))
			blobW.i32(int(rev.Day))
			blobW.writeRef(ar, rev.User)
			blobW.writeRef(ar, rev.Comment)
			blobW.writeRef(ar, rev.Text)
			if rev.ID > maxRev {
				maxRev = rev.ID
			}
		}
		dirW.writeRef(ar, t)
		dirW.u64(uint64(base))
		dirW.u32(uint32(blobW.len() - base))
		dirW.u32(0)

		for _, cc := range wiki.Links(a.Current()).Categories {
			catIdx[cc] = append(catIdx[cc], uint32(i))
		}
	}

	cats := make([]string, 0, len(catIdx))
	for c := range catIdx {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	metaW.u64(uint64(maxRev))
	metaW.u32(uint32(len(cats)))
	metaW.u32(0)
	start := 0
	for _, c := range cats {
		metaW.writeRef(ar, c)
		metaW.u32(uint32(start))
		metaW.u32(uint32(len(catIdx[c])))
		start += len(catIdx[c])
	}
	for _, c := range cats {
		for _, idx := range catIdx[c] {
			metaW.u32(idx)
		}
	}

	secs[secWikiDir] = dirW.buf
	secs[secWikiBlobs] = blobW.buf
	secs[secWikiMeta] = metaW.buf
}
