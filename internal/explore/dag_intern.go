package explore

import "repro/internal/status"

// This file holds the DAG substrate's storage primitives. The profile of a
// straightforward map[status.MapKey]*dagNode builder is dominated by the
// runtime map (hashing and probing 56-byte keys across tens of millions of
// entries) and by the garbage collector chasing one heap allocation per
// node; at d=6 on the evaluation catalog that builder loses to the plain
// tree walk despite doing 15x less classification work. The substrate
// therefore brings its own storage:
//
//   - nodeSlabOf: chunked, pointer-stable bulk allocation of nodes, so a
//     multi-million-node build costs thousands of allocations, not millions,
//     while a few-hundred-node build allocates a few tens of kilobytes.
//   - internTableOf: an open-addressed hash table whose slots are (hash,
//     node reference) pairs — 16 bytes, the 8-byte hashes in their own
//     probe array (8 slots per cache line) — with each 56-byte key stored
//     once, in its node, and read only on a hash match. A probe costs ~1
//     cache miss and a hit ~2, versus several for a runtime map at this
//     key size, and the table's empty slots (up to 5/8 of it) cost 16
//     bytes each rather than the 72 a key-carrying slot would.
//
// The slab and table are generic over the node payload: the streaming
// builder stores dagNodes, the counting kernel (dag_shared.go) stores
// countNodes in the same layout.

// Slab chunks grow geometrically: the first holds dagFirstChunk nodes and
// each later one twice its predecessor, up to dagChunk. Interactive
// queries cover short windows — a 2–4 semester goal count interns about
// 400 statuses, about 50 KB of dagNodes — while deep windows reach
// millions, so a fixed chunk sized for the deep tail (8192 nodes, 1 MiB)
// would be twenty times the whole answer of a typical request. Doubling
// holds the slab to at most twice the nodes used plus one first chunk,
// and once the cap is reached a multi-million-node build still allocates
// one chunk per 8192 nodes, as before.
const (
	dagFirstChunk = 1 << 8
	dagChunk      = 1 << 13
)

// nodeSlabOf bulk-allocates nodes in chunks of growing size. Chunks are
// never reallocated, so node pointers stay valid for the life of the
// build, and iterating the chunks visits every allocated node in creation
// order.
type nodeSlabOf[T any] struct {
	chunks [][]T
}

// nodeSlab is the streaming DAG builder's slab.
type nodeSlab = nodeSlabOf[dagNode]

func (s *nodeSlabOf[T]) alloc() *T {
	k := len(s.chunks)
	if k == 0 || len(s.chunks[k-1]) == cap(s.chunks[k-1]) {
		size := dagFirstChunk
		if k > 0 {
			size = min(2*cap(s.chunks[k-1]), dagChunk)
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// dagHash maps an interning key to a nonzero probe hash (zero marks an
// empty slot in internTable's probe array).
func dagHash(k status.MapKey) uint64 {
	h := k.Hash()
	if h == 0 {
		return 1
	}
	return h
}

// interned is internTableOf's node contract: a node reference whose node
// stores its own interning key (written by insert), so a hash collision
// can never merge two distinct statuses.
type interned interface {
	comparable
	internKey() *status.MapKey
}

// internTableOf is the open-addressed status interner: linear probing over
// the hashes array, the node's key verified only on a hash match. Entries
// are never deleted, so no tombstones are needed. The zero value is an
// empty table ready for use.
type internTableOf[N interned] struct {
	mask   uint64
	hashes []uint64 // probe array; 0 = empty slot
	refs   []N
	n      int
}

// internTable is the streaming DAG builder's interner.
type internTable = internTableOf[*dagNode]

func (n *dagNode) internKey() *status.MapKey { return &n.key }

// internMinSize is the table's first size (4 KB of hashes and
// references), matched to the slab's first chunk: a build of up to 192
// statuses never grows it, and a few-hundred-status one doubles it once
// or twice.
const internMinSize = 1 << 8

// lookup returns the node interned under (h, k), or the zero N.
func (t *internTableOf[N]) lookup(h uint64, k status.MapKey) N {
	var none N
	if t.n == 0 {
		return none
	}
	i := h & t.mask
	for {
		switch hh := t.hashes[i]; {
		case hh == 0:
			return none
		case hh == h && *t.refs[i].internKey() == k:
			return t.refs[i]
		}
		i = (i + 1) & t.mask
	}
}

// insert adds (h, k) → n, storing k in n. The key must not already be
// present (callers always lookup first); growth keeps the load factor
// under 3/4.
func (t *internTableOf[N]) insert(h uint64, k status.MapKey, n N) {
	if (t.n+1)*4 > len(t.hashes)*3 {
		t.grow()
	}
	*n.internKey() = k
	i := h & t.mask
	for t.hashes[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.hashes[i] = h
	t.refs[i] = n
	t.n++
}

func (t *internTableOf[N]) grow() {
	size := internMinSize
	if len(t.hashes) > 0 {
		size = len(t.hashes) * 2
	}
	oldH, oldR := t.hashes, t.refs
	t.hashes = make([]uint64, size)
	t.refs = make([]N, size)
	t.mask = uint64(size - 1)
	for j, h := range oldH {
		if h == 0 {
			continue
		}
		i := h & t.mask
		for t.hashes[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.hashes[i] = h
		t.refs[i] = oldR[j]
	}
}

// each calls fn for every entry, in table order.
func (t *internTableOf[N]) each(fn func(h uint64, k status.MapKey, n N)) {
	for j, h := range t.hashes {
		if h != 0 {
			fn(h, *t.refs[j].internKey(), t.refs[j])
		}
	}
}
