// Package resultcache caches rendered exploration responses between catalog
// reloads. The paper's interactive setting (§5) makes repeated near-identical
// queries the dominant workload — a student tweaks one knob and re-explores —
// while the underlying catalog changes on semester timescales, so a response
// computed once can serve every identical request until the next reload.
//
// The cache is a cost-aware LRU: the budget is in bytes and each entry is
// charged its materialized body size, so one huge graph response cannot
// silently displace thousands of cheap count summaries without accounting.
// Every key embeds the catalog snapshot generation, which makes invalidation
// O(1): after a reload bumps the generation, old entries can never match a
// new request's key, and Invalidate drops them wholesale.
//
// Concurrent identical misses coalesce: the first request becomes the
// flight leader and runs the exploration, followers block on the flight and
// share the rendered result. A leader that cannot produce a cacheable result
// finishes the flight with nil, and followers fall back to computing
// individually — coalescing is an optimisation, never a correctness gate.
//
// Invalidation retains the displaced generation's entries in a stale side
// table (keyed by request hash alone) for the server's brownout mode:
// when degraded, a request that misses the live cache may be answered from
// the previous snapshot's entry, marked stale, instead of being shed. The
// side table is replaced wholesale on every Invalidate, so it only ever
// holds the immediately preceding generation — staleness is bounded at one
// snapshot generation by construction.
//
// Storage is one intrusive LRU node per entry, holding the Entry by value
// and keyed by the 32-byte request hash alone (a cache holds one
// generation; Get and Put check the key's generation against it), so a
// resident entry costs one 96-byte node and one map slot on top of its
// body and window strings — under 192 B in all for a body-less cohort
// unit. A replacement links in a fresh node, so an *Entry once handed
// out by Get never changes.
package resultcache

import (
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Key identifies one cacheable response: the catalog snapshot generation and
// a digest of the canonicalized request plus the endpoint that handles it.
type Key struct {
	Gen  uint64
	Hash [sha256.Size]byte
}

// KeyFor derives the cache key for a canonicalized request blob hitting
// endpoint (e.g. "goal") under catalog snapshot gen. The endpoint is folded
// into the digest so equal request bodies posted to different endpoints
// (goal vs. deadline) never share an entry.
func KeyFor(gen uint64, endpoint string, canonical []byte) Key {
	h := sha256.New()
	// The endpoint goes in through a stack buffer: []byte(endpoint)
	// would heap-allocate for names longer than 32 bytes, which every
	// cohort-internal key space is.
	var buf [64]byte
	for len(endpoint) > 0 {
		n := copy(buf[:], endpoint)
		h.Write(buf[:n])
		endpoint = endpoint[n:]
	}
	h.Write([]byte{0})
	h.Write(canonical)
	var k Key
	k.Gen = gen
	h.Sum(k.Hash[:0])
	return k
}

// Entry is one cached response: the exact bytes written to the socket plus
// the annotations the usage log records about the run.
type Entry struct {
	// Body is the rendered JSON response, replayed byte-for-byte on a hit.
	Body []byte
	// Paths is the run's generated-path count, re-recorded in the usage
	// event of every replay.
	Paths int64
	// Window is the request's semester window annotation.
	Window string
}

// entryOverhead is the per-entry bookkeeping charge on top of the body
// bytes: an upper bound on the node and its map slot (see the package
// comment for measured costs), so the byte budget also bounds memory.
const entryOverhead = 256

func (e *Entry) size() int64 { return int64(len(e.Body)) + entryOverhead }

// Flight is one in-progress computation that concurrent identical requests
// share. The leader computes and calls Cache.Finish; followers Wait.
type Flight struct {
	done chan struct{}
	ent  *Entry // written once, before done is closed
}

// Wait blocks until the flight finishes or ctx is done. It returns the
// leader's entry, or nil when the leader produced nothing cacheable (or the
// context fired first) — the caller must then compute individually.
func (f *Flight) Wait(ctx context.Context) *Entry {
	select {
	case <-f.done:
		return f.ent
	case <-ctx.Done():
		return nil
	}
}

// Cache is the snapshot-versioned result cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	gen     uint64
	lru     node // sentinel: lru.next is the most recently used entry
	byHash  map[[sha256.Size]byte]*node
	bytes   int64
	flights map[Key]*Flight
	stale   map[[sha256.Size]byte]*Entry // previous generation only

	hits, misses, coalesced, evictions, staleHits atomic.Int64
}

// node is one resident entry, linked into the cache's LRU list.
type node struct {
	prev, next *node
	hash       [sha256.Size]byte
	ent        Entry
}

// New returns a cache holding at most budget bytes of response bodies.
func New(budget int64) *Cache {
	c := &Cache{
		budget:  budget,
		byHash:  map[[sha256.Size]byte]*node{},
		flights: map[Key]*Flight{},
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

func (c *Cache) unlink(n *node) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache) pushFront(n *node) {
	n.prev, n.next = &c.lru, c.lru.next
	n.prev.next, n.next.prev = n, n
}

// Get returns the entry for k, if any, marking it most recently used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.Gen == c.gen {
		if n, ok := c.byHash[k.Hash]; ok {
			c.unlink(n)
			c.pushFront(n)
			c.hits.Add(1)
			return &n.ent, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores a copy of an entry, evicting least-recently-used entries
// until the byte budget holds. Entries from a stale generation (or larger
// than the whole budget) are dropped silently — the catalog they
// describe is gone.
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, e)
}

func (c *Cache) put(k Key, e *Entry) {
	if e == nil || k.Gen != c.gen || e.size() > c.budget {
		return
	}
	if old, ok := c.byHash[k.Hash]; ok {
		c.unlink(old)
		c.bytes -= old.ent.size()
	}
	n := &node{hash: k.Hash, ent: *e}
	c.byHash[k.Hash] = n
	c.pushFront(n)
	c.bytes += e.size()
	c.evictToBudget()
}

// evictToBudget drops least-recently-used entries until bytes fit the
// budget. Caller holds mu.
func (c *Cache) evictToBudget() {
	for c.bytes > c.budget && c.lru.prev != &c.lru {
		n := c.lru.prev
		c.unlink(n)
		delete(c.byHash, n.hash)
		c.bytes -= n.ent.size()
		c.evictions.Add(1)
	}
}

// SetBudget changes the byte budget, evicting least-recently-used
// entries until the resident set fits. The multi-tenant server uses it
// to re-carve fair partition shares out of the global budget whenever
// the tenant registry grows or shrinks.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictToBudget()
}

// Budget returns the current byte budget.
func (c *Cache) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// Join registers interest in computing k. The first caller becomes the
// leader (leader == true) and must eventually call Finish with the same
// flight; later callers get the existing flight to Wait on.
func (c *Cache) Join(k Key) (f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[k]; ok {
		c.coalesced.Add(1)
		return f, false
	}
	f = &Flight{done: make(chan struct{})}
	c.flights[k] = f
	return f, true
}

// Finish completes a flight: followers wake with e (which may be nil when
// the leader's run turned out uncacheable), and a non-nil e is also stored
// in the cache. The flight is deregistered only if it is still the one
// registered for k — an intervening Invalidate may have replaced the map.
func (c *Cache) Finish(k Key, f *Flight, e *Entry) {
	c.mu.Lock()
	if c.flights[k] == f {
		delete(c.flights, k)
	}
	f.ent = e
	c.put(k, e)
	c.mu.Unlock()
	close(f.done)
}

// Stale returns the previous generation's entry matching k's request hash,
// if one survived the last Invalidate. k must carry the current generation —
// a key minted against an older snapshot gets nothing (its "stale" answer
// would be two or more generations old). The entry replays exactly as it was
// rendered; the caller is responsible for marking the response stale.
func (c *Cache) Stale(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.Gen != c.gen {
		return nil, false
	}
	e, ok := c.stale[k.Hash]
	if ok {
		c.staleHits.Add(1)
	}
	return e, ok
}

// Invalidate installs a new catalog generation: every cached entry and every
// registered flight belongs to the old snapshot and is dropped from the live
// table. In-flight leaders still Finish their (now unregistered) flights, so
// followers that joined before the reload wake normally; the stale entry is
// rejected by put's generation check.
//
// The dropped generation's entries move to the stale side table, replacing
// whatever it held, so Stale serves at most one generation back.
func (c *Cache) Invalidate(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
	stale := make(map[[sha256.Size]byte]*Entry, len(c.byHash))
	for h, n := range c.byHash {
		stale[h] = &n.ent
	}
	c.stale = stale
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.byHash = map[[sha256.Size]byte]*node{}
	c.bytes = 0
	c.flights = map[Key]*Flight{}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Evictions    int64 `json:"evictions"`
	Bytes        int64 `json:"bytes"`
	Entries      int   `json:"entries"`
	StaleEntries int   `json:"staleEntries"`
	StaleHits    int64 `json:"staleHits"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries, staleEntries := c.bytes, len(c.byHash), len(c.stale)
	c.mu.Unlock()
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		Bytes:        bytes,
		Entries:      entries,
		StaleEntries: staleEntries,
		StaleHits:    c.staleHits.Load(),
	}
}
