package archive

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"permadead/internal/simclock"
	"permadead/internal/urlutil"
)

// The frozen CDX index (DESIGN §3.2), the one implementation of every
// CDX query; a mutable Archive answers none. The differential tests
// hold it to naive linear scans of each host's insertion-ordered
// entries (naive_test.go). Freeze builds the index once, directly in
// the form persist format v4 stores (DESIGN §3.6):
//
//   - cdxhosts: per host, in name order, a 48-byte record locating its
//     rows, aux blob and bulk regions;
//   - cdxdata: per host, the rows by sorted position — (pathQuery, day,
//     insertion) order — as columns, with sorted-position ↔
//     insertion-rank columns, so path-prefix and exact-path queries are
//     binary-search ranges;
//   - cdxaux: per host, the status partitions (per initial status,
//     ascending, the run of sorted positions carrying it, so
//     status-filtered counts are range widths) and the query-key groups
//     (per urlutil.CanonicalQueryKey, ascending, the insertion ranks of
//     the query-bearing rows under it, so FindQueryPermutation is one
//     group lookup);
//   - bulk: the hosts' bulk regions;
//   - domains: registrable domain → sorted hosts, so DomainURLs touches
//     only the queried domain's hosts;
//   - the arena every string reference points into.
//
// The five index queries are written once, below, over those bytes.
// A paged file maps the same sections and serves them through the same
// code (Open); SavePaged copies Freeze's sections (Export) instead of
// rebuilding them.

// Fixed record sizes of the cdxhosts and bulk sections.
const (
	CDXHostRecSize = 48
	bulkRecSize    = 32
)

// cdxIndex serves the CDX index queries from the CDX sections of s:
// Freeze's, in memory, or a paged file's, mapped.
type cdxIndex struct {
	s                  Sections
	numHosts, numBulk  int
	numDomains, domIdx int
	byName             map[string]int // in memory: host → record; else binary search
	urls               [][]string     // in memory: each record's row URLs by sorted position
}

var le = binary.LittleEndian

func u32(b []byte, off int) int { return int(le.Uint32(b[off:])) }

// openCDX returns the index over the CDX sections, whose record sizes
// open checked, after checking the domain table's length. Each host's
// extents are checked when a query reads the host, so a damaged record
// answers as an absent host.
func openCDX(s Sections) (*cdxIndex, error) {
	x := &cdxIndex{s: s, numHosts: len(s.Hosts) / CDXHostRecSize, numBulk: len(s.Bulk) / bulkRecSize}
	if len(s.Domains) < 4 {
		return nil, fmt.Errorf("section %q: too short (%d bytes)", "domains", len(s.Domains))
	}
	x.numDomains = u32(s.Domains, 0)
	if x.domIdx = 4 + 16*x.numDomains; x.domIdx > len(s.Domains) {
		return nil, fmt.Errorf("section %q: domain table (%d entries) exceeds section length %d", "domains", x.numDomains, len(s.Domains))
	}
	return x, nil
}

// verify checks every cdxhosts record's extents, naming the section.
func (x *cdxIndex) verify() error {
	for rec := 0; rec < x.numHosts; rec++ {
		var r hostRows
		err := x.rows(rec, &r)
		if err == nil {
			if _, _, _, _, ok := r.keys(); !ok {
				err = fmt.Errorf("query-key table overruns its aux blob")
			}
		}
		if err != nil {
			return fmt.Errorf("section %q: host %q: %w", "cdxhosts", x.hostName(rec), err)
		}
	}
	return nil
}

// arenaStr is the arena string at (o, n); one outside the arena (a
// damaged file) reads as "".
func arenaStr(arena string, o, n int) string {
	if n == 0 || o+n > len(arena) {
		return ""
	}
	return arena[o : o+n]
}

// str resolves the string reference at off in b.
func (x *cdxIndex) str(b []byte, off int) string {
	return arenaStr(x.s.Arena, u32(b, off), u32(b, off+4))
}

func (x *cdxIndex) hostName(rec int) string { return x.str(x.s.Hosts, rec*CDXHostRecSize) }

// hostRows is one cdxhosts record's rows, decoded in place. At data in
// cdxdata: pathOff[n] pathLen[n] day[n] status[n] (u16, padded to 4
// bytes) insRank[n] insPerm[n]. In cdxaux, from parts-4 to auxEnd: u32
// #parts, {status, start, count} per part, n partition positions, u32
// #keys, {key ref, start, count} per key, key ranks.
type hostRows struct {
	x                       *cdxIndex
	rec, n, data            int
	parts, numParts, auxEnd int
	urls                    []string // in memory only
}

// rows fills r with record rec's view, checking the extents the
// record declares against their sections — O(1), no row is read. The
// key table, read only by FindQueryPermutation, is checked by keys.
func (x *cdxIndex) rows(rec int, r *hostRows) error {
	h := x.s.Hosts[rec*CDXHostRecSize:]
	n := u32(h, 16)
	base, size := le.Uint64(h[8:]), uint64(22*n+2*(n%2))
	if base > uint64(len(x.s.Data)) || size > uint64(len(x.s.Data))-base {
		return fmt.Errorf("%d rows at offset %d overrun the %d-byte %q section", n, base, len(x.s.Data), "cdxdata")
	}
	if start, count := u32(h, 20), u32(h, 24); start+count > x.numBulk {
		return fmt.Errorf("bulk range [%d, +%d) overruns the %d %q records", start, count, x.numBulk, "bulk")
	}
	aux, auxSize := le.Uint64(h[32:]), uint64(u32(h, 40))
	if aux > uint64(len(x.s.Aux)) || auxSize > uint64(len(x.s.Aux))-aux || auxSize < 4 {
		return fmt.Errorf("aux blob (offset %d, length %d) overruns the %d-byte %q section", aux, auxSize, len(x.s.Aux), "cdxaux")
	}
	*r = hostRows{x: x, rec: rec, n: n, data: int(base),
		parts: int(aux) + 4, numParts: u32(x.s.Aux, int(aux)), auxEnd: int(aux + auxSize)}
	if r.parts+12*r.numParts+4*n+4 > r.auxEnd {
		return fmt.Errorf("aux blob of %d bytes cannot hold %d partitions of %d rows", auxSize, r.numParts, n)
	}
	if x.urls != nil {
		r.urls = x.urls[rec]
	}
	return nil
}

// host fills r with a host's view; false when the host is absent or
// its record is damaged.
func (x *cdxIndex) host(name string, r *hostRows) bool {
	rec, ok := x.byName[name]
	if x.byName == nil {
		rec = sort.Search(x.numHosts, func(i int) bool { return x.hostName(i) >= name })
		ok = rec < x.numHosts && x.hostName(rec) == name
	}
	return ok && x.rows(rec, r) == nil
}

// row clamps a stored row index into [0, n): a damaged file yields
// wrong rows, never a read outside the host's block. Callers hold a
// position or rank below n, so n > 0.
func (r *hostRows) row(v int) int {
	if v >= r.n {
		return r.n - 1
	}
	return v
}

func (r *hostRows) path(pos int) string {
	d := r.x.s.Data
	return arenaStr(r.x.s.Arena, u32(d, r.data+4*pos), u32(d, r.data+4*(r.n+pos)))
}

func (r *hostRows) day(pos int) simclock.Day {
	return simclock.Day(int32(le.Uint32(r.x.s.Data[r.data+4*(2*r.n+pos):])))
}

func (r *hostRows) status(pos int) int {
	return int(le.Uint16(r.x.s.Data[r.data+12*r.n+2*pos:]))
}

// rank and pos read insRank and insPerm, after the padded status column.
func (r *hostRows) rank(pos int) int { return r.row(u32(r.x.s.Data, r.data+14*r.n+2*(r.n%2)+4*pos)) }
func (r *hostRows) pos(rank int) int { return r.row(u32(r.x.s.Data, r.data+18*r.n+2*(r.n%2)+4*rank)) }

// url is the row's replay URL: prebuilt in memory, concatenated when
// mapped.
func (r *hostRows) url(pos int) string {
	if r.urls != nil {
		return r.urls[pos]
	}
	return "http://" + r.x.hostName(r.rec) + r.path(pos)
}

// keys locates the key table: its offset and entry count, and the
// offset and count of the key ranks, which run to the blob's end. ok
// is false when they do not fit the blob (the host then has no keys).
func (r *hostRows) keys() (table, n, ranks, numRanks int, ok bool) {
	table = r.parts + 12*r.numParts + 4*r.n + 4
	n = u32(r.x.s.Aux, table-4)
	ranks = table + 16*n
	if ranks > r.auxEnd || (r.auxEnd-ranks)/4 > r.n {
		return 0, 0, 0, 0, false
	}
	return table, n, ranks, (r.auxEnd - ranks) / 4, true
}

// numBulk and bulk read the host's bulk regions.
func (r *hostRows) numBulk() int { return u32(r.x.s.Hosts, r.rec*CDXHostRecSize+24) }

func (r *hostRows) bulk(i int) BulkRegion {
	b := r.x.s.Bulk
	off := (u32(r.x.s.Hosts, r.rec*CDXHostRecSize+20) + i) * bulkRecSize
	return BulkRegion{
		Host:      r.x.hostName(r.rec),
		DirPrefix: r.x.str(b, off),
		Count:     u32(b, off+8),
		FirstDay:  simclock.Day(int32(le.Uint32(b[off+12:]))),
		LastDay:   simclock.Day(int32(le.Uint32(b[off+16:]))),
		Seed:      le.Uint64(b[off+24:]),
	}
}

// rowRun is a (pathQuery, day, insertion)-ordered run of sorted
// positions: every row, or one status partition.
type rowRun struct {
	part     bool
	start, n int
}

// run returns the run a status filter selects (0 = every row). A
// partition whose extent overruns the n partition positions is empty.
func (r *hostRows) run(status int) rowRun {
	if status == 0 {
		return rowRun{n: r.n}
	}
	aux := r.x.s.Aux
	for e := r.parts; e < r.parts+12*r.numParts; e += 12 {
		if u32(aux, e) == status {
			if start, n := u32(aux, e+4), u32(aux, e+8); start+n <= r.n {
				return rowRun{part: true, start: start, n: n}
			}
			break
		}
	}
	return rowRun{part: true}
}

// at is the sorted position of the run's i-th row.
func (r *hostRows) at(run rowRun, i int) int {
	if run.part {
		return r.row(u32(r.x.s.Aux, r.parts+12*r.numParts+4*(run.start+i)))
	}
	return i
}

// search binary-searches run from lo for the first path that sorts
// after key (after) or not before it (!after). With cut, each path is
// first cut to len(key), so "after" means "past the paths key
// prefixes".
func (r *hostRows) search(run rowRun, lo int, key string, after, cut bool) int {
	hi := run.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		p := r.path(r.at(run, m))
		if cut && len(p) > len(key) {
			p = p[:len(key)]
		}
		if c := strings.Compare(p, key); c > 0 || c == 0 && !after {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// prefixRange returns the half-open range of run whose pathQuery
// starts with prefix (the whole run for "").
func (r *hostRows) prefixRange(run rowRun, prefix string) (lo, hi int) {
	if prefix == "" {
		return 0, run.n
	}
	lo = r.search(run, 0, prefix, false, false)
	return lo, r.search(run, lo, prefix, true, true)
}

// bulkCount is the number of the host's bulk rows q matches.
func (r *hostRows) bulkCount(q CDXQuery) int {
	n := 0
	if q.Status == 0 || q.Status == 200 {
		for i := 0; i < r.numBulk(); i++ {
			n += bulkMatchCount(r.bulk(i), q)
		}
	}
	return n
}

// count answers CDXCount: a binary-search range width plus the
// O(#regions) bulk arithmetic.
func (x *cdxIndex) count(host string, q CDXQuery) int {
	var r hostRows
	if !x.host(host, &r) {
		return 0
	}
	lo, hi := r.prefixRange(r.run(q.Status), q.PathPrefix)
	return hi - lo + r.bulkCount(q)
}

// countSelf answers the exact-path, status-200 count in O(log n).
func (x *cdxIndex) countSelf(host, pathQuery string) int {
	var r hostRows
	if !x.host(host, &r) {
		return 0
	}
	run := r.run(200)
	lo := r.search(run, 0, pathQuery, false, false)
	return r.search(run, lo, pathQuery, true, false) - lo
}

// list answers CDXList. Output order matches the scan exactly:
// explicit rows in insertion order, then bulk regions. A prefix match
// is found in sorted order and re-sorted by rank — O(k log k) on the k
// matches; without a prefix the ranks are walked in order until the
// run's rows (or the limit) are emitted.
func (x *cdxIndex) list(host string, q CDXQuery, limit int) []CDXEntry {
	var r hostRows
	if !x.host(host, &r) {
		return nil
	}
	run := r.run(q.Status)
	lo, hi := r.prefixRange(run, q.PathPrefix)
	var ranks []int32
	if q.PathPrefix != "" && hi > lo {
		ranks = make([]int32, hi-lo)
		for i := range ranks {
			ranks[i] = int32(r.rank(r.at(run, lo+i)))
		}
		slices.Sort(ranks)
	}
	total := hi - lo + r.bulkCount(q)
	if total == 0 {
		return nil
	}
	out := make([]CDXEntry, 0, min(limit, total))
	emit := func(pos int) {
		out = append(out, CDXEntry{URL: r.url(pos), Day: r.day(pos), InitialStatus: r.status(pos)})
	}
	if q.PathPrefix == "" {
		for rank, want := 0, min(limit, run.n); rank < r.n && len(out) < want; rank++ {
			if pos := r.pos(rank); q.Status == 0 || r.status(pos) == q.Status {
				emit(pos)
			}
		}
	} else {
		for _, rank := range ranks[:min(limit, len(ranks))] {
			emit(r.pos(int(rank)))
		}
	}
	if q.Status == 0 || q.Status == 200 {
		for i := 0; i < r.numBulk() && len(out) < limit; i++ {
			out = appendBulk(out, r.bulk(i), q, limit)
		}
	}
	return out
}

// search binary-searches n name-sorted 16-byte records at table in b,
// each led by a reference into arena, for name.
func search(arena string, b []byte, table, n int, name string) (int, bool) {
	at := func(i int) string { return arenaStr(arena, u32(b, table+16*i), u32(b, table+16*i+4)) }
	i := sort.Search(n, func(i int) bool { return at(i) >= name })
	return i, i < n && at(i) == name
}

// lookup searches n name-sorted 16-byte {name ref, start, count}
// entries at table in b for name and returns the entry's extent (0, 0
// when absent, or when the extent overruns limit).
func lookup(arena string, b []byte, table, n int, name string, limit int) (start, count int) {
	i, ok := search(arena, b, table, n, name)
	if !ok {
		return 0, 0
	}
	if start, count = u32(b, table+16*i+8), u32(b, table+16*i+12); start+count > limit {
		return 0, 0
	}
	return start, count
}

// findPermutation answers FindQueryPermutation with one group lookup:
// only the candidates sharing the canonical query key — typically zero
// or one — are normalized.
func (x *cdxIndex) findPermutation(host, want, self string) (string, bool) {
	var r hostRows
	if !x.host(host, &r) {
		return "", false
	}
	table, n, ranks, numRanks, _ := r.keys()
	start, count := lookup(x.s.Arena, x.s.Aux, table, n, want, numRanks)
	for j := start; j < start+count; j++ {
		if cand := r.url(r.pos(r.row(u32(x.s.Aux, ranks+4*j)))); urlutil.Normalize(cand) != self {
			return cand, true
		}
	}
	return "", false
}

// domainHosts returns the sorted hosts under a registrable domain.
func (x *cdxIndex) domainHosts(domain string) []string {
	d := x.s.Domains
	start, n := lookup(x.s.Arena, d, 4, x.numDomains, domain, (len(d)-x.domIdx)/4)
	if n == 0 {
		return nil
	}
	hosts := make([]string, n)
	for j := range hosts {
		if rec := u32(d, x.domIdx+4*(start+j)); rec < x.numHosts {
			hosts[j] = x.hostName(rec)
		}
	}
	return hosts
}

// hosts returns every indexed hostname, sorted.
func (x *cdxIndex) hosts() []string {
	hs := make([]string, x.numHosts)
	for i := range hs {
		hs[i] = x.hostName(i)
	}
	return hs
}

// eachBulk calls fn for every bulk region, host by host.
func (x *cdxIndex) eachBulk(fn func(BulkRegion)) {
	var r hostRows
	for rec := 0; rec < x.numHosts; rec++ {
		if x.rows(rec, &r) == nil {
			for i := 0; i < r.numBulk(); i++ {
				fn(r.bulk(i))
			}
		}
	}
}

// --- building ---------------------------------------------------------

// builder appends the sections; ref interns each string into the
// arena once, at its first reference.
type builder struct {
	hosts, data, aux, bulk, domains        []byte
	snapKeys, snapRows, latency, prefilter []byte
	arena                                  []byte
	idx                                    map[string]int
}

func (b *builder) sections() Sections {
	return Sections{
		Hosts: b.hosts, Data: b.data, Aux: b.aux, Bulk: b.bulk, Domains: b.domains,
		SnapKeys: b.snapKeys, SnapRows: b.snapRows, Latency: b.latency, Prefilter: b.prefilter,
		Arena: string(b.arena),
	}
}

func (b *builder) ref(dst []byte, s string) []byte {
	off, ok := b.idx[s]
	if !ok && s != "" {
		off = len(b.arena)
		b.arena = append(b.arena, s...)
		b.idx[s] = off
	}
	return app32(dst, off, len(s))
}

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

func app32(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = le.AppendUint32(b, uint32(v))
	}
	return b
}

// eachRun calls fn once per maximal run of xs sharing key(x), in
// order; xs must be sorted by key.
func eachRun[T any, K comparable](xs []T, key func(T) K, fn func(k K, start, n int)) {
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && key(xs[j]) == key(xs[i]) {
			j++
		}
		fn(key(xs[i]), i, j-i)
		i = j
	}
}

// addCDX appends the CDX sections for byHost and returns what the
// in-memory index keeps beside them: host → record, and each record's
// row URLs by sorted position.
func (b *builder) addCDX(byHost map[string]*hostIndex) (byName map[string]int, urls [][]string) {
	byName = make(map[string]int, len(byHost))
	names := sortedKeys(byHost)
	for rec, h := range names {
		byName[h] = rec
		urls = append(urls, b.addHost(h, byHost[h]))
	}

	type hostDomain struct {
		domain string
		rec    int
	}
	hds := make([]hostDomain, len(names))
	for rec, h := range names {
		hds[rec] = hostDomain{urlutil.DomainOfHost(h), rec}
	}
	slices.SortStableFunc(hds, func(p, q hostDomain) int { return strings.Compare(p.domain, q.domain) })
	var table, idx []byte
	n := 0
	eachRun(hds, func(hd hostDomain) string { return hd.domain }, func(d string, start, count int) {
		table = app32(b.ref(table, d), start, count)
		n++
	})
	for _, hd := range hds {
		idx = app32(idx, hd.rec)
	}
	b.domains = append(append(app32(nil, n), table...), idx...)
	return byName, urls
}

// addHost appends one host's rows, aux blob, bulk regions and record,
// and returns its row URLs by sorted position.
func (b *builder) addHost(host string, hi *hostIndex) []string {
	entries := hi.entries
	n := len(entries)
	rank := make([]int, n) // sorted position → insertion rank
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(p, q int) bool {
		ep, eq := &entries[rank[p]], &entries[rank[q]]
		if ep.pathQuery != eq.pathQuery {
			return ep.pathQuery < eq.pathQuery
		}
		if ep.day != eq.day {
			return ep.day < eq.day
		}
		return rank[p] < rank[q]
	})
	pos := make([]int, n)
	for p, rk := range rank {
		pos[rk] = p
	}
	row := func(p int) *cdxRecord { return &entries[rank[p]] }

	// One builder holds every row URL; the per-row strings are
	// substrings of its single backing allocation.
	var ub strings.Builder
	offs := make([]int, n+1)
	for p := range rank {
		ub.WriteString("http://")
		ub.WriteString(host)
		ub.WriteString(row(p).pathQuery)
		offs[p+1] = ub.Len()
	}
	backing := ub.String()
	urls := make([]string, n)
	for p := range urls {
		urls[p] = backing[offs[p]:offs[p+1]]
	}

	b.data = pad8(b.data)
	rowBase := len(b.data)
	var lens []byte
	for p := range rank {
		ref := b.ref(nil, row(p).pathQuery)
		b.data, lens = append(b.data, ref[:4]...), append(lens, ref[4:]...)
	}
	b.data = append(b.data, lens...)
	for p := range rank {
		b.data = app32(b.data, int(row(p).day))
	}
	for p := range rank {
		b.data = le.AppendUint16(b.data, uint16(row(p).initialStatus))
	}
	if n%2 == 1 {
		b.data = le.AppendUint16(b.data, 0)
	}
	b.data = app32(app32(b.data, rank...), pos...)

	// Status partitions: the sorted positions, stably grouped by status.
	parts := make([]int, n)
	for p := range parts {
		parts[p] = p
	}
	status := func(p int) int { return row(p).initialStatus }
	slices.SortStableFunc(parts, func(p, q int) int { return cmp.Compare(status(p), status(q)) })
	var table []byte
	numParts := 0
	eachRun(parts, status, func(st, start, count int) {
		table = app32(table, st, start, count)
		numParts++
	})
	b.aux = pad8(b.aux)
	auxBase := len(b.aux)
	b.aux = app32(append(app32(b.aux, numParts), table...), parts...)

	// Query-key groups: the query-bearing ranks, stably grouped by key.
	type keyed struct {
		key  string
		rank int
	}
	var ks []keyed
	for rk := range entries {
		if strings.ContainsRune(entries[rk].pathQuery, '?') {
			ks = append(ks, keyed{urlutil.CanonicalQueryKey(urls[pos[rk]]), rk})
		}
	}
	slices.SortStableFunc(ks, func(p, q keyed) int { return strings.Compare(p.key, q.key) })
	table = table[:0]
	numKeys := 0
	eachRun(ks, func(k keyed) string { return k.key }, func(key string, start, count int) {
		table = app32(b.ref(table, key), start, count)
		numKeys++
	})
	b.aux = append(app32(b.aux, numKeys), table...)
	for _, k := range ks {
		b.aux = app32(b.aux, k.rank)
	}

	bulkStart := len(b.bulk) / bulkRecSize
	for _, r := range hi.bulk {
		b.bulk = app32(b.ref(b.bulk, r.DirPrefix), r.Count, int(r.FirstDay), int(r.LastDay), 0)
		b.bulk = le.AppendUint64(b.bulk, r.Seed)
	}

	b.hosts = le.AppendUint64(b.ref(b.hosts, host), uint64(rowBase))
	b.hosts = le.AppendUint64(app32(b.hosts, n, bulkStart, len(hi.bulk), 0), uint64(auxBase))
	b.hosts = app32(b.hosts, len(b.aux)-auxBase, 0)
	return urls
}
