// Package persist saves and restores a generated universe's observable
// state — the synthetic web, the wiki with its full revision history,
// and the archive — as one paged (format v4) file that is served
// directly from its mapped bytes (format4.go describes the layout). A
// restored bundle supports everything the study pipeline needs; the
// generator's plan (ground-truth labels) is deliberately not persisted,
// keeping saved universes measurement-only.
//
//	f, _ := os.Create("u.pduniv")
//	persist.SavePaged(f, persist.FromUniverse(u))
//
//	b, _ := persist.OpenPaged("u.pduniv")
//	defer b.Close()
//	study := &core.Study{Wiki: b.Wiki, Arch: b.Archive, ...}
package persist

import (
	"io"

	"permadead/internal/archive"
	"permadead/internal/fetch"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/wikimedia"
	"permadead/internal/worldgen"
)

// Bundle is the restorable state of a universe.
type Bundle struct {
	Params  worldgen.Params
	World   *simweb.World
	Wiki    *wikimedia.Wiki
	Archive *archive.Archive

	// closer releases the backing resources of a paged bundle (the
	// mapping and file handle). nil for in-memory bundles.
	closer io.Closer
}

// Close releases a paged bundle's file mapping. After Close, strings
// previously returned by the bundle's world/wiki/archive must not be
// used. Close on an in-memory bundle is a no-op.
func (b *Bundle) Close() error {
	if b.closer == nil {
		return nil
	}
	c := b.closer
	b.closer = nil
	return c.Close()
}

// Client is the host's one live-web client factory: a fetch.Client
// over the bundle's simulated web as of day.
func (b *Bundle) Client(day simclock.Day, opts ...fetch.Option) *fetch.Client {
	return fetch.New(simweb.NewTransport(b.World, day), opts...)
}

// FromUniverse extracts the persistable parts of a generated universe.
func FromUniverse(u *worldgen.Universe) *Bundle {
	params := u.Params
	params.Progress = nil // callbacks cannot (and need not) be serialized
	return &Bundle{Params: params, World: u.World, Wiki: u.Wiki, Archive: u.Archive}
}

// saveBufferSize sizes the write buffer: universes serialize to tens
// of megabytes of small writes, so batching them matters when w is an
// *os.File.
const saveBufferSize = 1 << 20
