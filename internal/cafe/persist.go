package cafe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
)

// A warmed video cache represents days of accumulated popularity
// signal; losing it on restart means days of elevated ingress and
// redirects while it re-warms. Save/Load serialize the complete Cafe
// state — configuration, IAT table and cached-chunk set — in a compact
// varint format, so a server can persist on shutdown and resume
// exactly where it left off. (The chunk *bytes* live in a store.FS and
// survive restarts on their own; this is the decision state.)

// snapshotMagic identifies the format; bump the digit on breaking
// changes.
var snapshotMagic = [8]byte{'C', 'A', 'F', 'E', 'S', 'N', 'P', '1'}

// maxSnapshotIndex bounds the chunk indices Load accepts. State is a
// slice per video reaching to its highest index, so a corrupt index
// would otherwise be an allocation of gigabytes; 2^24 chunks is a 32 TB
// video at the paper's chunk size.
const maxSnapshotIndex = 1 << 24

// Save writes the cache's full state to w. Equal states make equal
// snapshots: the IAT table is written in ascending chunk-key order.
func (c *Cache) Save(w io.Writer) error {
	// A bufio.Writer keeps its first error and returns it from every
	// later write and from Flush, so only Flush is checked.
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(snapshotMagic[:])
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) { bw.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	writeF := func(v float64) { writeU(math.Float64bits(v)) }
	writeB := func(v bool) {
		if v {
			writeU(1)
		} else {
			writeU(0)
		}
	}
	writeU(uint64(c.cfg.ChunkSize))
	writeU(uint64(c.cfg.DiskChunks))
	writeF(c.alpha)
	writeF(c.opt.Gamma)
	writeF(c.opt.WindowScale)
	writeB(c.opt.FileLevel)
	writeB(c.opt.NoVideoEstimate)
	writeU(uint64(c.firstTime))
	writeU(uint64(c.lastTime))
	writeU(uint64(c.requests))
	writeB(c.started)

	// IAT table. dt = unknownDT is encoded as a flag.
	writeU(uint64(c.tracked))
	ids := make([]chunk.VideoID, 0, len(c.videos))
	for id := range c.videos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for i, st := range c.videos[id].chunks {
			if !st.seen {
				continue
			}
			writeU(chunk.ID{Video: id, Index: uint32(i)}.Key())
			writeB(st.dt != unknownDT)
			if st.dt != unknownDT {
				writeF(st.dt)
			}
			writeU(uint64(st.t))
		}
	}
	// Cached chunk set (keys in the ordered set are recomputed on load
	// from the IAT state — they are a pure function of it).
	writeU(uint64(c.tree.Len()))
	c.tree.Ascend(func(id uint64, _ float64) bool {
		writeU(id)
		return true
	})
	return bw.Flush()
}

// Load reconstructs a Cafe cache from a Save snapshot.
func Load(r io.Reader) (*Cache, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("cafe: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, errors.New("cafe: not a cafe snapshot (bad magic)")
	}
	// The first read error sticks: later reads return zero, and each
	// section checks once.
	var rerr error
	readU := func() (v uint64) {
		if rerr == nil {
			v, rerr = binary.ReadUvarint(br)
		}
		return v
	}
	readF := func() float64 { return math.Float64frombits(readU()) }
	readB := func() bool { return readU() != 0 }

	cfg := core.Config{ChunkSize: int64(readU()), DiskChunks: int(readU())}
	alpha := readF()
	opt := Options{Gamma: readF(), WindowScale: readF(), FileLevel: readB(), NoVideoEstimate: readB()}
	firstTime, lastTime, requests, started := int64(readU()), int64(readU()), int64(readU()), readB()
	if rerr != nil {
		return nil, fmt.Errorf("cafe: corrupt snapshot header: %w", rerr)
	}
	c, err := New(cfg, alpha, opt)
	if err != nil {
		return nil, fmt.Errorf("cafe: snapshot carries invalid configuration: %w", err)
	}
	c.firstTime, c.lastTime, c.requests, c.started = firstTime, lastTime, requests, started

	n := readU()
	for i := uint64(0); i < n; i++ {
		id := chunk.FromKey(readU())
		e := iatEntry{dt: unknownDT}
		if readB() {
			e.dt = readF()
		}
		e.t = int64(readU())
		if rerr != nil {
			return nil, fmt.Errorf("cafe: corrupt IAT entry %d: %w", i, rerr)
		}
		if id.Index >= maxSnapshotIndex {
			return nil, fmt.Errorf("cafe: corrupt IAT entry %d: chunk index %d", i, id.Index)
		}
		c.remember(&c.record(id.Video, id.Index).chunks[id.Index], e)
	}
	m := readU()
	if m > uint64(cfg.DiskChunks) {
		return nil, fmt.Errorf("cafe: snapshot holds %d chunks for a %d-chunk disk", m, cfg.DiskChunks)
	}
	for i := uint64(0); i < m; i++ {
		id := chunk.FromKey(readU())
		if rerr != nil {
			return nil, fmt.Errorf("cafe: corrupt chunk entry %d: %w", i, rerr)
		}
		if id.Index >= maxSnapshotIndex {
			return nil, fmt.Errorf("cafe: corrupt chunk entry %d: chunk index %d", i, id.Index)
		}
		e, ok := c.history(id)
		if !ok || e.dt == unknownDT {
			return nil, fmt.Errorf("cafe: snapshot chunk %s has no IAT state", id)
		}
		c.place(c.record(id.Video, id.Index), id, c.treeKey(e))
	}
	if rerr != nil {
		return nil, fmt.Errorf("cafe: corrupt snapshot: %w", rerr)
	}
	return c, nil
}
