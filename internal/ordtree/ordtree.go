// Package ordtree implements the ordered chunk set of Section 6: items
// (a uint64 ID and a float64 key — Cafe's virtual timestamp, Psychic's
// next-request time, an LRU-K distance, a GDSP score) kept so that the
// first items in (key, id) order can be found and any item can be
// re-keyed, "gradually moving up this set according to its EWMA-ed IAT
// value".
//
// The set is an array-backed indexed 4-ary heap. A heap is enough, and
// exact, because the policies only ever ask three things of the order:
// the first item, the first n items outside one ID range (the eviction
// victims, never the chunks of the request being served), and a re-key.
// The victim scan walks the heap through a small frontier of candidate
// slots, so it emits items in exact (key, id) order; equal keys are
// ordered by ID, so the order — and with it every eviction sequence —
// is a pure function of the item set, whatever the insertion history.
// A re-key sifts from the item's current slot and so costs as much as
// the key moved, not the depth of the set: by Theorem 1 a Cafe key
// changes only when its chunk is accessed, and the chunks accessed most
// sit near the leaves.
package ordtree

import (
	"fmt"
	"math"
)

// arity is the heap's fan-out: the four children of a slot are
// adjacent, and the set is half as deep as a binary heap.
const arity = 4

// Handle names an item for as long as it stays in the set, wherever the
// heap moves it; Remove frees it for a later Insert to reuse, so live
// handles stay dense. The zero Handle names no item.
type Handle int32

type item struct {
	key float64
	id  uint64
	h   Handle
}

// Tree is an ordered set of (id, key) items addressed by Handle. It
// keeps no index from ID to item: a caller that finds its items by ID
// holds the handles itself, or uses ByID. The zero value is not usable;
// call New or NewDescending.
type Tree struct {
	heap []item
	// slot maps a live handle to its item's heap index, so sifting writes
	// one array. For a free handle it holds the next free handle; slot[0]
	// heads that list.
	slot     []int32
	desc     bool
	frontier []int32 // victim-scan scratch, reused
}

// New returns an empty set ordered by ascending (key, id).
func New() *Tree {
	return &Tree{slot: make([]int32, 1)}
}

// NewDescending returns an empty set ordered by descending (key, id):
// Min is the largest item and the scans run from the largest down.
func NewDescending() *Tree {
	t := New()
	t.desc = true
	return t
}

// before is the strict order of the set.
func (t *Tree) before(a, b *item) bool {
	if a.key != b.key {
		return (a.key < b.key) != t.desc
	}
	return (a.id < b.id) != t.desc
}

// Len returns the number of items.
func (t *Tree) Len() int { return len(t.heap) }

// at returns the heap index of the item h names. A handle that names no
// item — zero, never issued, or removed — is a caller's bug and panics.
func (t *Tree) at(h Handle) int {
	if uint(h) < uint(len(t.slot)) {
		if i := int(t.slot[h]); uint(i) < uint(len(t.heap)) && t.heap[i].h == h {
			return i
		}
	}
	panic(fmt.Sprintf("ordtree: handle %d names no item", h))
}

// ID returns the ID of the item h names.
func (t *Tree) ID(h Handle) uint64 { return t.heap[t.at(h)].id }

// Key returns the key of the item h names.
func (t *Tree) Key(h Handle) float64 { return t.heap[t.at(h)].key }

// Min returns the first item of the set's order, with ok=false on an
// empty set.
func (t *Tree) Min() (h Handle, ok bool) {
	if len(t.heap) == 0 {
		return 0, false
	}
	return t.heap[0].h, true
}

// Insert adds an item and returns its handle. The set does not know
// whether id is already present: the order is a pure function of the
// item set only while the caller keeps IDs unique. NaN keys are rejected
// with a panic: they would break the strict weak ordering and silently
// corrupt the set.
func (t *Tree) Insert(id uint64, key float64) Handle {
	checkKey(id, key)
	h := Handle(t.slot[0])
	if h != 0 {
		t.slot[0] = t.slot[h]
	} else {
		h = Handle(len(t.slot))
		t.slot = append(t.slot, 0)
	}
	t.heap = append(t.heap, item{})
	t.up(len(t.heap)-1, item{key: key, id: id, h: h})
	return h
}

// Rekey changes the key of the item h names.
func (t *Tree) Rekey(h Handle, key float64) {
	i := t.at(h)
	it := t.heap[i]
	checkKey(it.id, key)
	it.key = key
	t.fix(i, it)
}

// Remove deletes the item h names and returns its ID; h names nothing
// afterwards.
func (t *Tree) Remove(h Handle) uint64 {
	i := t.at(h)
	id := t.heap[i].id
	t.slot[h], t.slot[0] = t.slot[0], int32(h)
	last := len(t.heap) - 1
	it := t.heap[last]
	t.heap = t.heap[:last]
	if i != last {
		t.fix(i, it)
	}
	return id
}

func checkKey(id uint64, key float64) {
	if math.IsNaN(key) {
		panic(fmt.Sprintf("ordtree: NaN key for id %d", id))
	}
}

// fix places it, whose slot i is a hole, where the order wants it.
func (t *Tree) fix(i int, it item) {
	if i > 0 && t.before(&it, &t.heap[(i-1)/arity]) {
		t.up(i, it)
	} else {
		t.down(i, it)
	}
}

func (t *Tree) up(i int, it item) {
	for i > 0 {
		p := (i - 1) / arity
		if !t.before(&it, &t.heap[p]) {
			break
		}
		t.set(i, t.heap[p])
		i = p
	}
	t.set(i, it)
}

func (t *Tree) down(i int, it item) {
	n := len(t.heap)
	for {
		c := i*arity + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if t.before(&t.heap[j], &t.heap[m]) {
				m = j
			}
		}
		if !t.before(&t.heap[m], &it) {
			break
		}
		t.set(i, t.heap[m])
		i = m
	}
	t.set(i, it)
}

func (t *Tree) set(i int, it item) {
	t.heap[i] = it
	t.slot[it.h] = int32(i)
}

// AppendFirstOutside appends to dst the handles of the first n items of
// the set's order whose IDs fall outside the inclusive range [lo, hi]
// (fewer if the set runs out; lo > hi excludes nothing), in that order,
// and returns the grown slice. The policies pass the packed chunk-key range
// of the request being served — the chunks of one video are contiguous
// under chunk.ID.Key — so its chunks are never their own victims; with a
// recycled dst[:0] the scan allocates nothing.
//
// The scan is the k-smallest walk of a heap: a frontier holds the slots
// whose parent has been visited, the first of them in the set's order is
// visited next, and its children join the frontier.
func (t *Tree) AppendFirstOutside(dst []Handle, n int, lo, hi uint64) []Handle {
	if n <= 0 || len(t.heap) == 0 {
		return dst
	}
	f := append(t.frontier[:0], 0)
	for len(f) > 0 {
		i := int(f[0])
		if it := &t.heap[i]; it.id < lo || it.id > hi {
			dst = append(dst, it.h)
			if n--; n == 0 {
				break
			}
		}
		last := len(f) - 1
		moved := f[last]
		f = f[:last]
		if last > 0 {
			t.frontierDown(f, moved)
		}
		for c := i*arity + 1; c <= i*arity+arity && c < len(t.heap); c++ {
			f = t.frontierPush(f, int32(c))
		}
	}
	t.frontier = f[:0]
	return dst
}

// frontierPush adds heap slot s to the binary heap of slots f.
func (t *Tree) frontierPush(f []int32, s int32) []int32 {
	f = append(f, s)
	i := len(f) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(&t.heap[s], &t.heap[f[p]]) {
			break
		}
		f[i] = f[p]
		i = p
	}
	f[i] = s
	return f
}

// frontierDown places slot s in f, whose root is a hole.
func (t *Tree) frontierDown(f []int32, s int32) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(f) {
			break
		}
		if c+1 < len(f) && t.before(&t.heap[f[c+1]], &t.heap[f[c]]) {
			c++
		}
		if !t.before(&t.heap[f[c]], &t.heap[s]) {
			break
		}
		f[i] = f[c]
		i = c
	}
	f[i] = s
}

// Ascend calls fn for every item in the set's order until fn returns
// false. It sorts the whole set first, whatever fn does: it is for
// snapshots and tests, not for the request path.
func (t *Tree) Ascend(fn func(id uint64, key float64) bool) {
	for _, h := range t.AppendFirstOutside(nil, len(t.heap), 1, 0) {
		if it := &t.heap[t.slot[h]]; !fn(it.id, it.key) {
			return
		}
	}
}
