package explore

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// TestNodeSlabGrowth pins the slab's contract across chunk growth: chunks
// double from dagFirstChunk up to dagChunk, earlier node pointers stay
// valid as later chunks are added, and iterating the chunks visits nodes
// in creation order.
func TestNodeSlabGrowth(t *testing.T) {
	type node struct{ id int }
	var s nodeSlabOf[node]
	const n = 5*dagChunk + 123 // well past the cap
	ptrs := make([]*node, n)
	for i := range ptrs {
		p := s.alloc()
		if p.id != 0 {
			t.Fatalf("alloc %d returned a used node (id %d)", i, p.id)
		}
		p.id = i
		ptrs[i] = p
	}
	// Writes through the early pointers land in the slab's storage.
	for i, p := range ptrs {
		if p.id != i {
			t.Fatalf("pointer %d now reads id %d: node moved or was reused", i, p.id)
		}
		p.id = -i
	}
	next := 0
	wantCap := dagFirstChunk
	for k, chunk := range s.chunks {
		if cap(chunk) != wantCap {
			t.Errorf("chunk %d capacity %d, want %d", k, cap(chunk), wantCap)
		}
		if k < len(s.chunks)-1 && len(chunk) != cap(chunk) {
			t.Errorf("chunk %d holds %d of %d before the last chunk", k, len(chunk), cap(chunk))
		}
		for i := range chunk {
			if &chunk[i] != ptrs[next] || chunk[i].id != -next {
				t.Fatalf("chunk %d slot %d is not node %d: iteration out of creation order", k, i, next)
			}
			next++
		}
		wantCap = min(2*wantCap, dagChunk)
	}
	if next != n {
		t.Fatalf("iteration visited %d nodes, want %d", next, n)
	}
}

// internTestNode is a minimal interned payload for the table tests.
type internTestNode struct {
	key status.MapKey
	v   int
}

func (n *internTestNode) internKey() *status.MapKey { return &n.key }

// TestInternTableMatchesMap drives the interner from an empty table
// (first size internMinSize) through several doublings with a random
// insert/lookup sequence and checks every answer against a map. A second
// pass folds the hashes onto a few values, so long probe chains and
// equal-hash, different-key slots are exercised too.
func TestInternTableMatchesMap(t *testing.T) {
	hashes := map[string]func(status.MapKey) uint64{
		"dagHash":   dagHash,
		"colliding": func(k status.MapKey) uint64 { return 1 + dagHash(k)%7 },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var tab internTableOf[*internTestNode]
			ref := map[status.MapKey]*internTestNode{}
			key := func() status.MapKey {
				set := bitset.New(64)
				for i := rng.Intn(4); i > 0; i-- {
					set.Add(rng.Intn(64))
				}
				return status.MapKey{Ord: int32(rng.Intn(40)), Set: set.CompactKey()}
			}
			n := 3000
			if name == "colliding" {
				n = 600 // probe chains are O(n) here
			}
			for i := 0; i < 4*n; i++ {
				k := key()
				h := hash(k)
				got, want := tab.lookup(h, k), ref[k]
				if got != want {
					t.Fatalf("step %d: lookup = %p, map has %p", i, got, want)
				}
				if want == nil && len(ref) < n {
					v := &internTestNode{v: i}
					tab.insert(h, k, v)
					ref[k] = v
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("table holds %d entries, map %d", tab.n, len(ref))
			}
			if len(tab.hashes) <= internMinSize {
				t.Fatalf("table never grew past its first size %d", internMinSize)
			}
			seen := 0
			tab.each(func(h uint64, k status.MapKey, p *internTestNode) {
				seen++
				if ref[k] != p || hash(k) != h {
					t.Errorf("each yielded %v → %p (hash %x), map has %p (hash %x)", k, p, h, ref[k], hash(k))
				}
			})
			if seen != len(ref) {
				t.Fatalf("each visited %d entries, want %d", seen, len(ref))
			}
		})
	}
}

// TestDAGCountFootprint guards the storage sizing: a short-window goal
// count — the typical interactive request — allocates in proportion to
// its few statuses, not a fixed slab chunk sized for deep windows (such a
// chunk alone is 1 MiB).
func TestDAGCountFootprint(t *testing.T) {
	cat := brandeis.Catalog()
	goal := mustGoalSet(t, cat, "COSI 21A", "COSI 29A")
	start := emptyStart(cat, f11.Add(4)) // Fall 2013
	end := f11.Add(6)                    // two semesters later
	opt := Options{MaxPerTerm: 4, Substrate: SubstrateDAG}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	count := func() Result {
		res, err := GoalCount(cat, start, end, goal, pruners, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := count() // warm the catalog's lazily built tables
	if !res.DAG || res.Nodes == 0 {
		t.Fatalf("count did not run on the DAG: %+v", res)
	}
	const ceiling = 256 << 10
	// TotalAlloc is process-wide, so another test's allocations can only
	// inflate a sample: the minimum over a few runs is this run's own.
	best := uint64(1<<63 - 1)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		count()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > ceiling {
		t.Fatalf("2-semester goal count (%d statuses) allocated %d bytes, ceiling %d", res.Nodes, best, ceiling)
	}
	t.Logf("2-semester goal count: %d statuses, %d bytes", res.Nodes, best)
}

// TestSharedCounterFootprint guards the shared substrate's storage: an
// interned status costs at most 140 bytes all told (node with its key,
// table slot, vector, arena sets) once a counter holds tens of thousands,
// and a counter of a handful of statuses — most of a cohort job's
// variant counters — stays far below a fixed deep-window chunk. Live
// heap is measured after GC, with the counter still reachable.
func TestSharedCounterFootprint(t *testing.T) {
	cat := brandeis.Catalog()
	major, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MaxPerTerm: 3}
	live := func(goal degree.Goal, start term.Term, end term.Term) (statuses, bytes int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sc, err := NewSharedCounter(cat, end, 1, goal, PaperPruners(cat, goal, opt.MaxPerTerm), opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Counts(context.Background(), emptyStart(cat, start)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		statuses = sc.Stats().Statuses
		runtime.KeepAlive(sc)
		return statuses, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}

	// The major over Fall 2013 → Fall 2015: about 35k statuses.
	n, b := live(major, f11.Add(4), f11.Add(8))
	if n < 20_000 {
		t.Fatalf("large counter interned only %d statuses", n)
	}
	if per := b / n; per > 140 {
		t.Errorf("%d statuses cost %d B each, ceiling 140", n, per)
	}
	t.Logf("large counter: %d statuses, %d B each", n, b/n)

	// One semester before the deadline: a few statuses.
	n, b = live(mustGoalSet(t, cat, "COSI 21A", "COSI 29A"), f11.Add(7), f11.Add(8))
	if n > 16 {
		t.Fatalf("small counter interned %d statuses", n)
	}
	if b > 64<<10 {
		t.Errorf("%d-status counter costs %d B, ceiling 64 KiB", n, b)
	}
	t.Logf("small counter: %d statuses, %d B", n, b)
}
