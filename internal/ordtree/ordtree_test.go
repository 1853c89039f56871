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

// firstOutside is the specification of Tree.AppendFirstOutside: walk in
// order, drop the IDs inside [lo, hi], stop after n.
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

// checkAgainst compares every observable of tr with the reference and
// the heap's own structural invariants, returning "" when all hold.
func checkAgainst(tr *Tree, ref *refTree) string {
	if tr.Len() != len(ref.byID) {
		return "Len differs"
	}
	if len(tr.byID) != len(tr.heap) {
		return "byID and heap sizes differ"
	}
	for i := range tr.heap {
		it := &tr.heap[i]
		if i > 0 && tr.before(it, &tr.heap[(i-1)/arity]) {
			return "heap order violated"
		}
		if tr.slot[it.h] != int32(i) || tr.byID[it.id] != it.h {
			return "slot table or byID out of step with the heap"
		}
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
	id, key, ok := tr.Min()
	if ok != (len(want) > 0) || ok && (want[0] != pair{id, key}) {
		return "Min differs"
	}
	for _, p := range want {
		if k, ok := tr.Key(p.id); !ok || k != p.key || !tr.Contains(p.id) {
			return "Key/Contains differs"
		}
	}
	return ""
}

func TestEmpty(t *testing.T) {
	for _, tr := range []*Tree{New(), NewDescending()} {
		if tr.Len() != 0 {
			t.Error("new set should be empty")
		}
		if _, _, ok := tr.Min(); ok {
			t.Error("Min on empty should report !ok")
		}
		if tr.Remove(1) || tr.Contains(1) {
			t.Error("Remove/Contains of absent should be false")
		}
		if _, ok := tr.Key(1); ok {
			t.Error("Key of absent should report !ok")
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
	tr.Insert(2, 3.0)
	tr.Insert(3, 7.0)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if k, ok := tr.Key(2); !ok || k != 3.0 {
		t.Errorf("Key(2) = %v,%v", k, ok)
	}
	if id, k, ok := tr.Min(); !ok || id != 2 || k != 3.0 {
		t.Errorf("Min = %d,%v,%v", id, k, ok)
	}
	if !tr.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if tr.Contains(2) {
		t.Error("2 should be gone")
	}
	if id, _, _ := tr.Min(); id != 1 {
		t.Errorf("new Min = %d, want 1", id)
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New()
	h := tr.Insert(1, 5.0)
	if tr.Insert(1, 1.0) != h { // move down
		t.Error("re-keying Insert returned a different handle")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace, not duplicate)", tr.Len())
	}
	if k, _ := tr.Key(1); k != 1.0 {
		t.Errorf("Key = %v, want 1.0", k)
	}
	tr.Insert(2, 0.5)
	if id, _, _ := tr.Min(); id != 2 {
		t.Errorf("Min = %d, want 2", id)
	}
	tr.Rekey(h, 0.1) // arbitrary downward move, impossible in plain LRU
	if id, _, _ := tr.Min(); id != 1 {
		t.Errorf("Min = %d, want 1 after re-keying", id)
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
	mustPanic(t, "NaN key on a re-keying Insert", func() { tr.Insert(1, math.NaN()) })
	mustPanic(t, "NaN key on Rekey", func() { tr.Rekey(h, math.NaN()) })
	if k, _ := tr.Key(1); tr.Len() != 1 || k != 1 {
		t.Errorf("a rejected key changed the set: Len %d, Key(1) %v", tr.Len(), k)
	}
}

func TestStaleHandlePanics(t *testing.T) {
	tr := New()
	h := tr.Insert(1, 1)
	tr.Insert(2, 2)
	tr.Remove(1)
	mustPanic(t, "Rekey of a removed item", func() { tr.Rekey(h, 3) })
	mustPanic(t, "Rekey of the zero handle", func() { tr.Rekey(0, 3) })
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
		if id, key, _ := asc.Min(); id != want || key != float64(want) || !asc.Remove(id) {
			t.Fatalf("pop min = %d (%v), want %d", id, key, want)
		}
		if id, _, _ := desc.Min(); id != 9-want || !desc.Remove(id) {
			t.Fatalf("pop max = %d, want %d", id, 9-want)
		}
	}
	if asc.Len() != 0 || desc.Len() != 0 {
		t.Errorf("Len = %d, %d after popping everything", asc.Len(), desc.Len())
	}
}

func TestSmallestExcluding(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	if got := tr.AppendFirstOutside(nil, 3, 1, 2); !slices.Equal(got, []uint64{0, 3, 4}) {
		t.Fatalf("first 3 outside [1,2] = %v, want [0 3 4]", got)
	}
	if got := tr.AppendFirstOutside(nil, 0, 1, 0); got != nil {
		t.Error("n=0 should return dst untouched")
	}
	// Asking for more than available (after exclusions).
	if got := tr.AppendFirstOutside(nil, 5, 0, 8); !slices.Equal(got, []uint64{9}) {
		t.Errorf("got %v, want [9]", got)
	}
	if got := tr.AppendFirstOutside(nil, 5, 0, 9); len(got) != 0 {
		t.Errorf("got %v with every item excluded", got)
	}
}

func TestLargestExcluding(t *testing.T) {
	tr := NewDescending()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	if got := tr.AppendFirstOutside(nil, 3, 9, 9); !slices.Equal(got, []uint64{8, 7, 6}) {
		t.Fatalf("largest 3 outside [9,9] = %v, want [8 7 6]", got)
	}
	// Ties run from the largest ID down, +Inf sorts first.
	tr.Insert(20, math.Inf(1))
	tr.Insert(21, math.Inf(1))
	if got := tr.AppendFirstOutside(nil, 3, 1, 0); !slices.Equal(got, []uint64{21, 20, 9}) {
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

// Model-based property: random insert/re-key/remove/pop operations
// leave the heap and the reference treap indistinguishable.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, desc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, ref := New(), newRef()
		tr.desc = desc
		handles := map[uint64]Handle{}
		for op := 0; op < 400; op++ {
			id := uint64(rng.Intn(50))
			key := math.Floor(rng.Float64()*100) / 4 // force duplicate keys
			switch rng.Intn(6) {
			case 0, 1, 2: // insert/replace
				handles[id] = tr.Insert(id, key)
				ref.insert(id, key)
			case 3: // re-key by handle
				if h, ok := handles[id]; ok {
					tr.Rekey(h, key)
					ref.insert(id, key)
				}
			case 4: // remove
				if tr.Remove(id) != ref.remove(id) {
					return false
				}
				delete(handles, id)
			case 5: // pop
				if id, _, ok := tr.Min(); ok {
					tr.Remove(id)
					ref.remove(id)
					delete(handles, id)
				}
			}
			lo := uint64(rng.Intn(50))
			hi := lo + uint64(rng.Intn(12)) - 2
			n := rng.Intn(8)
			if !slices.Equal(tr.AppendFirstOutside(nil, n, lo, hi), ref.firstOutside(desc, n, lo, hi)) {
				return false
			}
			if op%20 == 0 && checkAgainst(tr, ref) != "" {
				return false
			}
		}
		return checkAgainst(tr, ref) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzOrderedSetVsReference drives both orders of the set and the
// reference treap with one operation per three input bytes: duplicate
// keys, ±Inf, NaN (must panic and change nothing), re-keys by handle
// and by ID, and scans whose excluded range covers none, some or all of
// the items. Every observable is compared after every operation.
func FuzzOrderedSetVsReference(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 0, 2, 2, 8, 1, 7, 24, 0, 31, 16, 1, 0})
	f.Add(true, []byte{0, 1, 14, 0, 2, 14, 0, 3, 15, 24, 9, 0, 40, 2, 13, 32, 3, 0})
	f.Add(false, []byte{0, 5, 13, 1, 5, 12, 2, 5, 3, 25, 0, 0, 26, 31, 0})
	keys := []float64{math.Inf(-1), -2.5, -1, 0, 0.25, 1, 1, 1, 2, 3, 1e9, 1e18, math.Inf(1), math.Inf(1), math.NaN(), math.NaN()}
	f.Fuzz(func(t *testing.T, desc bool, ops []byte) {
		tr, ref := New(), newRef()
		tr.desc = desc
		handles := map[uint64]Handle{}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, id, arg := ops[0]>>3, uint64(ops[1]%32), ops[2]
			key := keys[arg%16]
			switch op % 6 {
			case 0, 1: // upsert by ID
				if math.IsNaN(key) {
					mustPanic(t, "NaN Insert", func() { tr.Insert(id, key) })
					break
				}
				handles[id] = tr.Insert(id, key)
				ref.insert(id, key)
			case 2: // re-key by handle
				h, ok := handles[id]
				if !ok {
					break
				}
				if math.IsNaN(key) {
					mustPanic(t, "NaN Rekey", func() { tr.Rekey(h, key) })
					break
				}
				tr.Rekey(h, key)
				ref.insert(id, key)
			case 3: // scan: first n outside [lo, hi]
				n, lo, hi := int(ops[0]&7)*3, id, uint64(arg%34)
				got, want := tr.AppendFirstOutside([]uint64{77}, n, lo, hi), ref.firstOutside(desc, n, lo, hi)
				if got[0] != 77 || !slices.Equal(got[1:], want) {
					t.Fatalf("first %d outside [%d,%d] = %v, want 77 then %v", n, lo, hi, got, want)
				}
			case 4: // remove
				if got, want := tr.Remove(id), ref.remove(id); got != want {
					t.Fatalf("Remove(%d) = %v, want %v", id, got, want)
				}
				delete(handles, id)
			case 5: // pop the first item
				if first, _, ok := tr.Min(); ok {
					tr.Remove(first)
					ref.remove(first)
					delete(handles, first)
				}
			}
			if msg := checkAgainst(tr, ref); msg != "" {
				t.Fatalf("after op %d on id %d: %s", op%6, id, msg)
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
			got, want := tr.AppendFirstOutside(nil, n, r[0], r[1]), ref.firstOutside(false, n, r[0], r[1])
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d outside %v: got %v, want %v", n, r, got, want)
			}
		}
	}
	// Appending to a non-empty dst keeps the prefix.
	got := tr.AppendFirstOutside([]uint64{999}, 2, 10, 20)
	if len(got) != 3 || got[0] != 999 || !slices.Equal(got[1:], ref.firstOutside(false, 2, 10, 20)) {
		t.Errorf("append to prefix: %v", got)
	}
}

// TestSteadyStateAllocFree pins that once a set has reached its
// high-water item count, the evict-then-fill cycle (Remove one id,
// Insert a new one), the re-key path and the victim scan allocate
// nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1024; i++ {
		tr.Insert(i, float64(i))
	}
	next := uint64(1024)
	evict := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		tr.Remove(evict)
		tr.Insert(next, float64(next))
		evict++
		next++
	})
	// The byID map may occasionally rehash; anything beyond that means
	// handles or heap slots are not being reused.
	if allocs > 0.5 {
		t.Errorf("steady-state Remove+Insert allocates %.2f/op, want ~0", allocs)
	}
	rekey := uint64(500)
	h := tr.Insert(rekey, 500)
	allocs = testing.AllocsPerRun(200, func() {
		k, _ := tr.Key(rekey)
		tr.Insert(rekey, k+1e6)
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

var scratch = make([]uint64, 0, 16)

func BenchmarkInsertRemove(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % 4096)
		tr.Insert(id, rng.Float64())
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
