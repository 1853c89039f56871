package ordtree

// ByID is a Tree together with the index from item ID to Handle, for the
// policies that ask "is this chunk cached?" by ID (lruk, gdsp, belady,
// psychic) and keep no per-chunk record a handle could live in. Cafe has
// such a record and uses the Tree directly. Items are found by ID on the
// way in; the scan's victims are addressed by the handles it returns.
// Insert and Remove must go through ByID, which shadows the Tree's.
type ByID struct {
	*Tree
	byID map[uint64]Handle
}

// NewByID indexes the empty set t, which the caller gives up.
func NewByID(t *Tree) *ByID { return &ByID{Tree: t, byID: make(map[uint64]Handle)} }

// Contains reports whether id is present.
func (x *ByID) Contains(id uint64) bool {
	_, ok := x.byID[id]
	return ok
}

// Insert adds id with the given key, or re-keys it if present.
func (x *ByID) Insert(id uint64, key float64) {
	if h, ok := x.byID[id]; ok {
		x.Rekey(h, key)
		return
	}
	x.byID[id] = x.Tree.Insert(id, key)
}

// Remove deletes the item h names and returns its ID.
func (x *ByID) Remove(h Handle) uint64 {
	id := x.Tree.Remove(h)
	delete(x.byID, id)
	return id
}
