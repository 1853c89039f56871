package ordtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refTree is the reference model every test compares the heap with: the
// treap that was this package's ordered set before the heap — a balanced
// search tree whose in-order walk *is* the (key, id) order, with
// splitmix64(id) priorities so its shape is a function of the item set.
type refTree struct {
	root *node
	byID map[uint64]*node
}

type node struct {
	id   uint64
	key  float64
	prio uint64
	l, r *node
}

func newRef() *refTree { return &refTree{byID: make(map[uint64]*node)} }

func (t *refTree) insert(id uint64, key float64) {
	if old, ok := t.byID[id]; ok {
		t.root = remove(t.root, old.key, id)
	}
	n := &node{id: id, key: key, prio: splitmix64(id)}
	t.byID[id] = n
	t.root = insert(t.root, n)
}

func (t *refTree) remove(id uint64) bool {
	n, ok := t.byID[id]
	if !ok {
		return false
	}
	t.root = remove(t.root, n.key, id)
	delete(t.byID, id)
	return true
}

// walk visits the items in ascending (key, id) order, or descending.
func (t *refTree) walk(desc bool, fn func(id uint64, key float64) bool) {
	walk(t.root, desc, fn)
}

// firstOutside is the specification of Tree.AppendFirstOutside, in IDs:
// walk in order, drop the IDs inside [lo, hi], stop after n.
func (t *refTree) firstOutside(desc bool, n int, lo, hi uint64) []uint64 {
	var out []uint64
	t.walk(desc, func(id uint64, _ float64) bool {
		if len(out) >= n {
			return false
		}
		if id < lo || id > hi {
			out = append(out, id)
		}
		return true
	})
	return out
}

func walk(n *node, desc bool, fn func(uint64, float64) bool) bool {
	if n == nil {
		return true
	}
	first, second := n.l, n.r
	if desc {
		first, second = n.r, n.l
	}
	return walk(first, desc, fn) && fn(n.id, n.key) && walk(second, desc, fn)
}

func less(aKey float64, aID uint64, b *node) bool {
	if aKey != b.key {
		return aKey < b.key
	}
	return aID < b.id
}

func insert(n, x *node) *node {
	if n == nil {
		return x
	}
	if less(x.key, x.id, n) {
		n.l = insert(n.l, x)
		if n.l.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.r = insert(n.r, x)
		if n.r.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	return n
}

func remove(n *node, key float64, id uint64) *node {
	if n == nil {
		return nil
	}
	if n.id == id && n.key == key {
		return merge(n.l, n.r)
	}
	if less(key, id, n) {
		n.l = remove(n.l, key, id)
	} else {
		n.r = remove(n.r, key, id)
	}
	return n
}

func merge(l, r *node) *node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio > r.prio {
		l.r = merge(l.r, r)
		return l
	}
	r.l = merge(l, r.l)
	return r
}

func rotateRight(n *node) *node {
	l := n.l
	n.l = l.r
	l.r = n
	return l
}

func rotateLeft(n *node) *node {
	r := n.r
	n.r = r.l
	r.l = n
	return r
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// model pairs the heap with the reference treap and holds what a caller
// of the handle-only API holds: the handle of every live ID.
type model struct {
	tr      *Tree
	ref     *refTree
	handles map[uint64]Handle
	gone    []Handle // handles that have been removed, some since reissued
}

func newModel(desc bool) *model {
	tr := New()
	tr.desc = desc
	return &model{tr: tr, ref: newRef(), handles: map[uint64]Handle{}}
}

// upsert is what ByID.Insert does, with the index held here.
func (m *model) upsert(id uint64, key float64) {
	if h, ok := m.handles[id]; ok {
		m.tr.Rekey(h, key)
	} else {
		m.handles[id] = m.tr.Insert(id, key)
	}
	m.ref.insert(id, key)
}

func (m *model) remove(id uint64) {
	h, ok := m.handles[id]
	if ok {
		m.tr.Remove(h)
		m.gone = append(m.gone, h)
		delete(m.handles, id)
	}
	if m.ref.remove(id) != ok {
		panic("the test's handle index and the reference disagree")
	}
}

// live reports whether h names an item now.
func (m *model) live(h Handle) bool {
	for _, held := range m.handles {
		if held == h {
			return true
		}
	}
	return false
}

// ids names the items a scan of tr returned.
func ids(tr *Tree, hs []Handle) []uint64 {
	var out []uint64
	for _, h := range hs {
		out = append(out, tr.ID(h))
	}
	return out
}

// check compares every observable of the heap with the reference and
// the heap's own structural invariants, returning "" when all hold.
func (m *model) check() string {
	tr, ref := m.tr, m.ref
	if tr.Len() != len(ref.byID) || tr.Len() != len(m.handles) {
		return "Len differs"
	}
	for i := range tr.heap {
		it := &tr.heap[i]
		if i > 0 && tr.before(it, &tr.heap[(i-1)/arity]) {
			return "heap order violated"
		}
		if tr.slot[it.h] != int32(i) || m.handles[it.id] != it.h {
			return "slot table or the caller's handles out of step with the heap"
		}
	}
	// Handles are dense: every handle ever issued is live or on the free
	// list, so the table never outgrows the set's high-water mark.
	free := 0
	for h := tr.slot[0]; h != 0; h = tr.slot[h] {
		free++
	}
	if len(tr.slot) != 1+tr.Len()+free {
		return "handles leaked: slot table larger than live + free"
	}
	type pair struct {
		id  uint64
		key float64
	}
	var want []pair
	ref.walk(tr.desc, func(id uint64, key float64) bool { want = append(want, pair{id, key}); return true })
	i := 0
	same := true
	tr.Ascend(func(id uint64, key float64) bool {
		same = i < len(want) && want[i] == pair{id, key}
		i++
		return same
	})
	if !same || i != len(want) {
		return "Ascend differs from the reference walk"
	}
	// The whole set, scanned: handles whose ID and Key are the
	// reference's order exactly.
	all := tr.AppendFirstOutside(nil, tr.Len(), 1, 0)
	if len(all) != len(want) {
		return "full scan length differs"
	}
	for i, h := range all {
		if (want[i] != pair{tr.ID(h), tr.Key(h)}) || m.handles[want[i].id] != h {
			return "scan handles differ from the reference order"
		}
	}
	h, ok := tr.Min()
	if ok != (len(want) > 0) || ok && h != all[0] {
		return "Min differs"
	}
	return ""
}

func TestEmpty(t *testing.T) {
	for _, tr := range []*Tree{New(), NewDescending()} {
		if tr.Len() != 0 {
			t.Error("new set should be empty")
		}
		if _, ok := tr.Min(); ok {
			t.Error("Min on empty should report !ok")
		}
		if got := tr.AppendFirstOutside(nil, 3, 1, 0); len(got) != 0 {
			t.Error("scan of an empty set should be empty")
		}
		tr.Ascend(func(uint64, float64) bool { t.Error("Ascend visited an item of an empty set"); return false })
	}
}

func TestInsertLookupRemove(t *testing.T) {
	tr := New()
	tr.Insert(1, 5.0)
	h2 := tr.Insert(2, 3.0)
	tr.Insert(3, 7.0)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.ID(h2) != 2 || tr.Key(h2) != 3.0 {
		t.Errorf("handle of (2, 3.0) names (%d, %v)", tr.ID(h2), tr.Key(h2))
	}
	if h, ok := tr.Min(); !ok || h != h2 {
		t.Errorf("Min = %d,%v, want handle %d", h, ok, h2)
	}
	tr.Remove(h2)
	if tr.Len() != 2 {
		t.Error("2 should be gone")
	}
	if h, _ := tr.Min(); tr.ID(h) != 1 {
		t.Errorf("new Min = %d, want 1", tr.ID(h))
	}
}

// Inserting an ID that is present is ByID's business: it re-keys the one
// item. The Tree underneath moves an item by its handle.
func TestInsertReplaces(t *testing.T) {
	x := NewByID(New())
	x.Insert(1, 5.0)
	x.Insert(1, 1.0) // move down
	h, _ := x.Min()
	if x.Len() != 1 || x.ID(h) != 1 || x.Key(h) != 1.0 {
		t.Fatalf("Len = %d, first item (%d, %v); want one item (1, 1.0): replace, not duplicate", x.Len(), x.ID(h), x.Key(h))
	}
	x.Insert(2, 0.5)
	if m, _ := x.Min(); x.ID(m) != 2 {
		t.Errorf("Min = item %d, want 2", x.ID(m))
	}
	x.Rekey(h, 0.1) // arbitrary downward move, impossible in plain LRU
	if m, _ := x.Min(); m != h {
		t.Errorf("Min = item %d, want 1 after re-keying", x.ID(m))
	}
}

// A removed item's handle goes to the next Insert, so a caller's table
// indexed by handle stays as small as the set's high-water mark.
func TestHandlesAreRecycled(t *testing.T) {
	tr := New()
	var hs []Handle
	for i := uint64(0); i < 8; i++ {
		hs = append(hs, tr.Insert(i, float64(i)))
	}
	tr.Remove(hs[3])
	tr.Remove(hs[5])
	a, b := tr.Insert(100, 1), tr.Insert(101, 2)
	if a != hs[5] || b != hs[3] {
		t.Errorf("reissued handles %d, %d; want the freed %d, %d", a, b, hs[5], hs[3])
	}
	if tr.ID(a) != 100 || tr.ID(b) != 101 {
		t.Error("a recycled handle names its new item")
	}
	if h := tr.Insert(102, 3); int(h) != 9 {
		t.Errorf("with no handle free the next is %d, want 9", h)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	fn()
}

func TestNaNPanics(t *testing.T) {
	tr := New()
	h := tr.Insert(1, 1)
	mustPanic(t, "NaN key on Insert", func() { tr.Insert(2, math.NaN()) })
	mustPanic(t, "NaN key on Rekey", func() { tr.Rekey(h, math.NaN()) })
	if tr.Len() != 1 || tr.Key(h) != 1 {
		t.Errorf("a rejected key changed the set: Len %d, Key %v", tr.Len(), tr.Key(h))
	}
	if again := tr.Insert(2, 2); again != h+1 {
		t.Errorf("a rejected Insert consumed a handle: next is %d", again)
	}
}

func TestStaleHandlePanics(t *testing.T) {
	tr := New()
	h := tr.Insert(1, 1)
	tr.Insert(2, 2)
	tr.Remove(h)
	for _, stale := range []Handle{h, 0, -1, 3, 1 << 20} {
		mustPanic(t, "Rekey of a handle naming nothing", func() { tr.Rekey(stale, 3) })
		mustPanic(t, "Remove of a handle naming nothing", func() { tr.Remove(stale) })
		mustPanic(t, "ID of a handle naming nothing", func() { tr.ID(stale) })
		mustPanic(t, "Key of a handle naming nothing", func() { tr.Key(stale) })
	}
	if tr.Len() != 1 {
		t.Errorf("a refused handle changed the set: Len %d", tr.Len())
	}
}

func TestDuplicateKeysOrderedByID(t *testing.T) {
	for _, tc := range []struct {
		tr   *Tree
		want []uint64
	}{{New(), []uint64{10, 20, 30}}, {NewDescending(), []uint64{30, 20, 10}}} {
		tc.tr.Insert(30, 1.0)
		tc.tr.Insert(10, 1.0)
		tc.tr.Insert(20, 1.0)
		var ids []uint64
		tc.tr.Ascend(func(id uint64, _ float64) bool { ids = append(ids, id); return true })
		if !slices.Equal(ids, tc.want) {
			t.Fatalf("desc=%v: Ascend ids = %v, want %v", tc.tr.desc, ids, tc.want)
		}
	}
}

// Popping is Min then Remove: from an ascending set it yields the
// minimum, from a descending set the maximum.
func TestPopMinPopMax(t *testing.T) {
	asc, desc := New(), NewDescending()
	for i := uint64(0); i < 10; i++ {
		asc.Insert(i, float64(i))
		desc.Insert(i, float64(i))
	}
	for want := uint64(0); want < 10; want++ {
		h, _ := asc.Min()
		if id, key := asc.ID(h), asc.Key(h); id != want || key != float64(want) {
			t.Fatalf("pop min = %d (%v), want %d", id, key, want)
		}
		asc.Remove(h)
		h, _ = desc.Min()
		if id := desc.ID(h); id != 9-want {
			t.Fatalf("pop max = %d, want %d", id, 9-want)
		}
		desc.Remove(h)
	}
	if asc.Len() != 0 || desc.Len() != 0 {
		t.Errorf("Len = %d, %d after popping everything", asc.Len(), desc.Len())
	}
}

// scanIDs runs the victim scan and names the items it returned.
func scanIDs(tr *Tree, n int, lo, hi uint64) []uint64 {
	return ids(tr, tr.AppendFirstOutside(nil, n, lo, hi))
}

func TestSmallestExcluding(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	if got := scanIDs(tr, 3, 1, 2); !slices.Equal(got, []uint64{0, 3, 4}) {
		t.Fatalf("first 3 outside [1,2] = %v, want [0 3 4]", got)
	}
	if got := tr.AppendFirstOutside(nil, 0, 1, 0); got != nil {
		t.Error("n=0 should return dst untouched")
	}
	// Asking for more than available (after exclusions).
	if got := scanIDs(tr, 5, 0, 8); !slices.Equal(got, []uint64{9}) {
		t.Errorf("got %v, want [9]", got)
	}
	if got := scanIDs(tr, 5, 0, 9); len(got) != 0 {
		t.Errorf("got %v with every item excluded", got)
	}
}

func TestLargestExcluding(t *testing.T) {
	tr := NewDescending()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	if got := scanIDs(tr, 3, 9, 9); !slices.Equal(got, []uint64{8, 7, 6}) {
		t.Fatalf("largest 3 outside [9,9] = %v, want [8 7 6]", got)
	}
	// Ties run from the largest ID down, +Inf sorts first.
	tr.Insert(20, math.Inf(1))
	tr.Insert(21, math.Inf(1))
	if got := scanIDs(tr, 3, 1, 0); !slices.Equal(got, []uint64{21, 20, 9}) {
		t.Fatalf("largest 3 = %v, want [21 20 9]", got)
	}
}

func TestAscendDescendEarlyStop(t *testing.T) {
	for _, tr := range []*Tree{New(), NewDescending()} {
		for i := uint64(0); i < 10; i++ {
			tr.Insert(i, float64(i))
		}
		count := 0
		tr.Ascend(func(uint64, float64) bool { count++; return count < 3 })
		if count != 3 {
			t.Errorf("desc=%v: early stop visited %d", tr.desc, count)
		}
	}
}

// Model-based property: random insert/re-key/remove/pop operations, all
// by handle, leave the heap and the reference treap indistinguishable.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, desc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newModel(desc)
		for op := 0; op < 400; op++ {
			id := uint64(rng.Intn(50))
			key := math.Floor(rng.Float64()*100) / 4 // force duplicate keys
			switch rng.Intn(6) {
			case 0, 1, 2, 3: // insert, or re-key by the handle held
				m.upsert(id, key)
			case 4: // remove
				m.remove(id)
			case 5: // pop
				if h, ok := m.tr.Min(); ok {
					m.remove(m.tr.ID(h))
				}
			}
			lo := uint64(rng.Intn(50))
			hi := lo + uint64(rng.Intn(12)) - 2
			n := rng.Intn(8)
			if !slices.Equal(scanIDs(m.tr, n, lo, hi), m.ref.firstOutside(desc, n, lo, hi)) {
				return false
			}
			if op%20 == 0 && m.check() != "" {
				return false
			}
		}
		return m.check() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzOrderedSetVsReference drives both orders of the set and the
// reference treap with one operation per three input bytes, every one
// through a handle: duplicate keys, ±Inf, NaN (must panic and change
// nothing), re-keys, removals whose handles the next inserts reuse,
// stale handles (must panic and change nothing), and scans whose
// excluded range covers none, some or all of the items and whose
// handles must name the reference's items in the reference's order.
// Every observable is compared after every operation.
func FuzzOrderedSetVsReference(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 0, 2, 2, 8, 1, 7, 24, 0, 31, 16, 1, 0})
	f.Add(true, []byte{0, 1, 14, 0, 2, 14, 0, 3, 15, 24, 9, 0, 40, 2, 13, 32, 3, 0})
	f.Add(false, []byte{0, 5, 13, 1, 5, 12, 2, 5, 3, 25, 0, 0, 26, 31, 0})
	f.Add(false, []byte{0, 1, 3, 0, 2, 4, 32, 1, 0, 48, 0, 5, 0, 9, 1, 48, 0, 5})
	keys := []float64{math.Inf(-1), -2.5, -1, 0, 0.25, 1, 1, 1, 2, 3, 1e9, 1e18, math.Inf(1), math.Inf(1), math.NaN(), math.NaN()}
	f.Fuzz(func(t *testing.T, desc bool, ops []byte) {
		m := newModel(desc)
		for ; len(ops) >= 3; ops = ops[3:] {
			op, id, arg := ops[0]>>3, uint64(ops[1]%32), ops[2]
			key := keys[arg%16]
			switch op % 7 {
			case 0, 1, 2: // insert, or re-key by the handle held
				if math.IsNaN(key) {
					if h, ok := m.handles[id]; ok {
						mustPanic(t, "NaN Rekey", func() { m.tr.Rekey(h, key) })
					} else {
						mustPanic(t, "NaN Insert", func() { m.tr.Insert(id, key) })
					}
					break
				}
				m.upsert(id, key)
			case 3: // scan: first n outside [lo, hi]
				n, lo, hi := int(ops[0]&7)*3, id, uint64(arg%34)
				got, want := m.tr.AppendFirstOutside([]Handle{77}, n, lo, hi), m.ref.firstOutside(desc, n, lo, hi)
				if got[0] != 77 || !slices.Equal(ids(m.tr, got[1:]), want) {
					t.Fatalf("first %d outside [%d,%d] = %v, want 77 then handles of %v", n, lo, hi, got, want)
				}
			case 4: // remove
				m.remove(id)
			case 5: // pop the first item
				if h, ok := m.tr.Min(); ok {
					m.remove(m.tr.ID(h))
				}
			case 6: // a handle that was removed, unless an insert has reused it
				if len(m.gone) == 0 {
					break
				}
				h := m.gone[int(arg)%len(m.gone)]
				if m.live(h) {
					break
				}
				mustPanic(t, "Rekey of a removed item", func() { m.tr.Rekey(h, 1) })
				mustPanic(t, "Remove of a removed item", func() { m.tr.Remove(h) })
				mustPanic(t, "ID of a removed item", func() { m.tr.ID(h) })
			}
			if msg := m.check(); msg != "" {
				t.Fatalf("after op %d on id %d: %s", op%7, id, msg)
			}
		}
	})
}

// The reference must itself be right. With hashed priorities, the
// treap's depth on n sequential IDs should be O(log n) ...
func TestBalancedDepth(t *testing.T) {
	ref := newRef()
	const n = 1 << 14
	for i := uint64(0); i < n; i++ {
		ref.insert(i, float64(i))
	}
	var depth func(nd *node) int
	depth = func(nd *node) int {
		if nd == nil {
			return 0
		}
		l, r := depth(nd.l), depth(nd.r)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	// Expected depth ~ 3*log2(n) ≈ 42 with very high probability.
	if d := depth(ref.root); d > 80 {
		t.Errorf("treap depth %d too large for n=%d", d, n)
	}
}

// ... and it must keep BST order on (key,id) and max-heap order on prio.
func TestTreapInvariants(t *testing.T) {
	ref := newRef()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		ref.insert(uint64(rng.Intn(500)), math.Floor(rng.Float64()*50))
		if i%3 == 0 {
			ref.remove(uint64(rng.Intn(500)))
		}
	}
	var check func(n *node, lo, hi *node) bool
	check = func(n, lo, hi *node) bool {
		if n == nil {
			return true
		}
		if lo != nil && !less(lo.key, lo.id, n) {
			return false
		}
		if hi != nil && !less(n.key, n.id, hi) {
			return false
		}
		if n.l != nil && n.l.prio > n.prio {
			return false
		}
		if n.r != nil && n.r.prio > n.prio {
			return false
		}
		return check(n.l, lo, n) && check(n.r, n, hi)
	}
	if !check(ref.root, nil, nil) {
		t.Error("treap invariants violated")
	}
}

func TestAppendSmallestExcludingRange(t *testing.T) {
	tr, ref := New(), newRef()
	for i := uint64(0); i < 64; i++ {
		key := float64((i * 37) % 16) // shuffled, with duplicates
		tr.Insert(i, key)
		ref.insert(i, key)
	}
	// Excluded range covering some, all and none of the items, for
	// every requested count.
	for _, r := range [][2]uint64{{10, 20}, {0, 63}, {50, 40}, {63, 200}} {
		for n := 0; n <= 70; n += 7 {
			got, want := scanIDs(tr, n, r[0], r[1]), ref.firstOutside(false, n, r[0], r[1])
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d outside %v: got %v, want %v", n, r, got, want)
			}
		}
	}
	// Appending to a non-empty dst keeps the prefix.
	got := tr.AppendFirstOutside([]Handle{999}, 2, 10, 20)
	if len(got) != 3 || got[0] != 999 || !slices.Equal([]uint64{tr.ID(got[1]), tr.ID(got[2])}, ref.firstOutside(false, 2, 10, 20)) {
		t.Errorf("append to prefix: %v", got)
	}
}

// TestSteadyStateAllocFree pins that once a set has reached its
// high-water item count, the evict-then-fill cycle (Remove the first
// item, Insert a new one), the re-key path and the victim scan allocate
// nothing: with no ID map to rehash, not even now and then.
func TestSteadyStateAllocFree(t *testing.T) {
	tr := New()
	var h Handle
	for i := uint64(0); i < 1024; i++ {
		h = tr.Insert(i, float64(i))
	}
	next := uint64(1024)
	allocs := testing.AllocsPerRun(2000, func() {
		first, _ := tr.Min()
		tr.Remove(first)
		h = tr.Insert(next, float64(next))
		next++
	})
	if allocs != 0 {
		t.Errorf("steady-state Remove+Insert allocates %.2f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		k := tr.Key(h)
		tr.Rekey(h, -1)
		tr.Rekey(h, k)
	})
	if allocs != 0 {
		t.Errorf("re-key allocates %.2f/op, want 0", allocs)
	}
	tr.AppendFirstOutside(nil, 8, 10, 20) // sizes the frontier
	allocs = testing.AllocsPerRun(200, func() {
		scratch = tr.AppendFirstOutside(scratch[:0], 8, 10, 20)
	})
	if allocs != 0 {
		t.Errorf("victim scan allocates %.2f/op, want 0", allocs)
	}
}

var scratch = make([]Handle, 0, 16)

// ByID is the upsert-by-ID view lruk, gdsp, belady and psychic use: its
// index and the set must stay in step through re-keys and removals.
func TestByID(t *testing.T) {
	x := NewByID(NewDescending())
	for i := uint64(0); i < 6; i++ {
		x.Insert(i, float64(i))
	}
	x.Insert(2, 10) // re-key, not a second item
	if x.Len() != 6 || !x.Contains(2) || x.Contains(6) {
		t.Fatalf("Len %d, Contains(2) %v, Contains(6) %v", x.Len(), x.Contains(2), x.Contains(6))
	}
	victims := x.AppendFirstOutside(nil, 2, 5, 5)
	if len(victims) != 2 || x.ID(victims[0]) != 2 || x.Key(victims[0]) != 10 || x.ID(victims[1]) != 4 {
		t.Fatalf("first 2 outside [5,5] of the descending set: %v", victims)
	}
	if id := x.Remove(victims[0]); id != 2 || x.Contains(2) || x.Len() != 5 {
		t.Errorf("Remove returned %d; Contains(2) %v, Len %d", id, x.Contains(2), x.Len())
	}
	x.Insert(2, -1) // back, as a new item at the far end
	var ids []uint64
	x.Ascend(func(id uint64, _ float64) bool { ids = append(ids, id); return true })
	if !slices.Equal(ids, []uint64{5, 4, 3, 1, 0, 2}) {
		t.Errorf("Ascend = %v, want [5 4 3 1 0 2]", ids)
	}
}

func BenchmarkInsertRemove(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	hs := make([]Handle, 4096)
	for i := range hs {
		hs[i] = tr.Insert(uint64(i), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 4096
		tr.Remove(hs[id])
		hs[id] = tr.Insert(uint64(id), rng.Float64())
	}
}

func BenchmarkFirstOutside(b *testing.B) {
	tr := New()
	for i := uint64(0); i < 4096; i++ {
		tr.Insert(i, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = tr.AppendFirstOutside(scratch[:0], 8, 1, 3)
	}
}
