package explore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// This file holds the DAG substrate's one counter (DESIGN.md §13, §17):
// countKernel, a memoised depth-first DP over interned statuses, and
// SharedCounter, the long-lived concurrent wrapper cohort runs share.
// Every DAG count — deadline and goal counts, the multi-deadline probe,
// what-if candidate scores and cohort member counts — runs on the kernel.
//
//   - Tallies are stored per status: countNode carries a
//     (horizon+2)-wide vector — total maximal paths, plus goal paths for
//     every deadline in [end, end+horizon] — filled bottom-up as the DFS
//     unwinds. Each distinct status is classified and expanded at most
//     once for the life of the kernel; a later edge into it is a memo
//     hit that adds its vector.
//   - Terminal children (goal reached, or landing on the deadline) fold
//     at the edge and are never interned: their whole contribution is
//     known there, and skipping their probe and option-set derivation
//     roughly halves the work.
//   - A status is interned only once its vector is complete, so a
//     stopped build unwinds with partial sums — lower bounds — and
//     leaves no half-filled tally behind for a later root to reuse.
//   - SharedCounter wraps a kernel in one RWMutex: lookups of
//     already-built roots take the read lock; a build takes the write
//     lock for its whole DFS, so a cold build blocks every other caller
//     — hits included, since RLock waits behind a pending writer — until
//     it finishes.
//   - Memory is bounded by MaxStatuses: a build that would exceed the
//     hard cap (2x) aborts and evicts; a build that lands between the
//     budget and the cap completes, answers, and then evicts — the next
//     call starts cold, which trades latency for the bound.

// defaultSharedStatuses bounds a SharedCounter's interned statuses when
// the caller passes no budget. At ~130 bytes per interned status (node,
// table slot, vector and arena sets) this is roughly 130 MB.
const defaultSharedStatuses = 1 << 20

// countNode is one interned status's memoised tally vector. vec[0] is
// the number of maximal paths from the status under the farthest
// deadline; vec[1+h] the number of goal-reaching paths under deadline
// end+h. The status itself is not retained — only the key identifies it.
// The vector lives in the kernel's vecSlab; the node holds its 8-byte
// position rather than a 24-byte slice header.
type countNode struct {
	key status.MapKey
	vec vecRef
}

func (n *countNode) internKey() *status.MapKey { return &n.key }

// Vector slab chunks grow geometrically, like nodeSlabOf's: the first
// holds vecFirstChunk int64s and each later one twice its predecessor,
// up to vecChunk. A cohort job builds a counter per catalog variant and
// deadline, most of them small, so a fixed chunk sized for the deep
// tail (256 KiB) would dominate a few-status counter.
const (
	vecFirstChunk = 1 << 8
	vecChunk      = 1 << 15
)

// vecSlab bulk-allocates tally vectors. Like nodeSlabOf, chunks are
// never reallocated, so handed-out vectors stay valid until the counter
// is evicted wholesale.
type vecSlab struct {
	chunks [][]int64
}

// vecRef is a vector's position in its vecSlab.
type vecRef struct {
	chunk, off uint32
}

func (s *vecSlab) alloc(stride int) vecRef {
	k := len(s.chunks)
	if k == 0 || cap(s.chunks[k-1])-len(s.chunks[k-1]) < stride {
		size := vecFirstChunk
		if k > 0 {
			size = min(2*cap(s.chunks[k-1]), vecChunk)
		}
		s.chunks = append(s.chunks, make([]int64, 0, max(size, stride)))
	}
	c := &s.chunks[len(s.chunks)-1]
	ref := vecRef{chunk: uint32(len(s.chunks) - 1), off: uint32(len(*c))}
	*c = (*c)[:len(*c)+stride]
	return ref
}

// at returns the stride-long vector at ref.
func (s *vecSlab) at(ref vecRef, stride int) []int64 {
	return s.chunks[ref.chunk][ref.off : int(ref.off)+stride : int(ref.off)+stride]
}

// SharedStats snapshots a SharedCounter's lifetime tallies.
type SharedStats struct {
	// Statuses is the current interned-status count; Hits counts root
	// queries answered without building anything.
	Statuses, Hits int64
	// Builds counts root queries that ran the DP; NewStatuses and
	// ReusedStatuses split the statuses those builds touched into
	// first-sight expansions and memo hits.
	Builds, NewStatuses, ReusedStatuses int64
	// Evictions counts wholesale resets (budget overruns).
	Evictions int64
}

// SharedCounts is one root query's answer.
type SharedCounts struct {
	// Paths is the number of maximal paths from the start status under
	// the farthest deadline (end+horizon); GoalPaths[h] the number of
	// goal-reaching paths under deadline end+h, for h = 0..horizon.
	Paths     int64
	GoalPaths []int64
	// NewStatuses / ReusedStatuses split the statuses this query's build
	// touched; Hit reports the root itself was already interned (a pure
	// lookup — NewStatuses is then 0).
	NewStatuses, ReusedStatuses int64
	Hit                         bool
}

// countKernel is the memoised depth-first counter. It is not safe for
// concurrent use: one-shot runs own a throwaway kernel, and
// SharedCounter serialises builds on its write lock.
type countKernel struct {
	e       *engine // deadline end+horizon
	endOrd  int     // base deadline's ordinal
	horizon int
	stride  int // horizon+2

	tab  internTableOf[*countNode]
	slab nodeSlabOf[countNode]
	vecs vecSlab
	// zero is the one all-zero vector every pruned status points at:
	// pruned statuses end no path, and they are most of a pruned build's
	// statuses (96% of the horizon-4 Brandeis probe's).
	zero vecRef

	// ctl is the run control: noteNode per classified status, notePaths
	// per folded terminal edge, natural dead end and terminal root, and a
	// stop check per new status and per selection. nil never stops.
	ctl *control
	// capStatuses, when positive, stops a build once the table holds that
	// many statuses.
	capStatuses int

	// Per-depth scratch sets for the DFS: selections hands out wscr[d] at
	// depth d (engine.selScratch), and uscr[d] holds the candidate child's
	// completed union for the memo probe. Sized once per window depth by
	// reserve, never while a build is running.
	wscr, uscr []bitset.Set

	// newN and reusedN count interned statuses and memo hits since the
	// owner last zeroed them.
	newN, reusedN int64
}

// newCountKernel returns an empty kernel over e, whose deadline must be
// end+horizon, charging e's run control.
func newCountKernel(e *engine, end term.Term, horizon int) *countKernel {
	k := &countKernel{e: e, endOrd: end.Ordinal(), horizon: horizon, stride: horizon + 2, ctl: e.ctl}
	k.zero = k.vecs.alloc(k.stride)
	return k
}

// vecOf returns the tally vector at ref.
func (k *countKernel) vecOf(ref vecRef) []int64 {
	return k.vecs.at(ref, k.stride)
}

// reserve sizes the per-depth scratch — the bitsets and the engine's
// combination buffers — for a root at term t, so the DFS below it never
// allocates scratch. Called between builds only: frames hold pointers
// into wscr.
func (k *countKernel) reserve(t term.Term) {
	e := k.e
	levels := e.end.Ordinal() - t.Ordinal()
	if levels <= len(k.wscr) {
		return
	}
	w := e.cat.Len()
	sets := make([]bitset.Set, 2*levels)
	for i := range sets {
		sets[i] = e.arena.Make(w)
	}
	k.wscr, k.uscr = sets[:levels:levels], sets[levels:]
	e.reserveScratches(levels)
}

// root answers one start status: its tally vector, looked up or built.
// ok is false when the run stopped first; the vector then holds lower
// bounds (all zero if the root itself was never classified).
func (k *countKernel) root(st status.Status) (vec []int64, ok bool) {
	key := st.MapKey()
	h := dagHash(key)
	if n := k.tab.lookup(h, key); n != nil {
		k.reusedN++
		return k.vecOf(n.vec), true
	}
	k.reserve(st.Term)
	vec, ok = k.build(h, key, st, 0)
	if vec == nil {
		vec = make([]int64, k.stride)
	}
	return vec, ok
}

// mustStop charges one new status against the run control and reports
// whether the build must unwind instead of classifying it.
func (k *countKernel) mustStop() bool {
	if k.ctl != nil && (k.ctl.halted() != stopNone || k.ctl.noteNode()) {
		return true
	}
	return k.capStatuses > 0 && k.tab.n >= k.capStatuses
}

func (k *countKernel) notePath() {
	if k.ctl != nil {
		k.ctl.notePaths(1)
	}
}

// build classifies a status not yet interned and computes its tally
// vector, interning it on completion. depth is the distance from the
// build's root: the root is classified in full, while a child reaches
// build only after the caller ruled out the goal and deadline terminals.
// On a stop it returns ok == false with the partial sums (nil when the
// status was never classified), and interns nothing.
func (k *countKernel) build(h uint64, key status.MapKey, st status.Status, depth int) ([]int64, bool) {
	if k.mustStop() {
		return nil, false
	}
	e := k.e
	var cls nodeClass
	var minTake int
	if depth == 0 {
		cls, minTake = e.classify(st)
	} else {
		cls, minTake = e.classifyPruned(st)
	}
	e.res.Nodes++
	ref := k.zero
	if cls != classPruned {
		ref = k.vecs.alloc(k.stride)
	}
	vec := k.vecOf(ref)
	switch cls {
	case classGoal:
		vec[0] = 1
		for hz := clampHz(st.Term.Ordinal()-k.endOrd, k.horizon); hz <= k.horizon; hz++ {
			vec[1+hz] = 1
		}
		k.notePath()
	case classDeadline:
		vec[0] = 1
		k.notePath()
	case classExpand:
		if !k.expand(st, minTake, depth, vec) {
			return vec, false
		}
	}
	k.newN++
	n := k.slab.alloc()
	n.vec = ref
	k.tab.insert(h, key, n)
	return vec, true
}

// expand enumerates st's selections once, summing the children's
// vectors into vec, and reports whether the enumeration completed.
// Terminal children fold at the edge; interned children are memo hits;
// the rest are built depth-first. A stop mid-enumeration also suppresses
// the natural-dead-end verdict (unexpanded is not childless).
func (k *countKernel) expand(st status.Status, minTake, depth int, vec []int64) bool {
	e := k.e
	next := st.Term.Next()
	ord := int32(next.Ordinal())
	goalFrom := clampHz(next.Ordinal()-k.endOrd, k.horizon)
	lastLevel := !next.Before(e.end)
	u := &k.uscr[depth]
	childless, stopped := true, false
	e.selScratch = &k.wscr[depth]
	_ = e.selections(st, minTake, func(sel bitset.Set) error {
		if k.ctl.interrupted() {
			stopped = true
			return errStopRun
		}
		childless = false
		e.res.Edges++
		u.CopyFrom(st.Completed)
		u.UnionInPlace(sel)
		if e.goal != nil && e.goal.Satisfied(*u) {
			vec[0]++
			for hz := goalFrom; hz <= k.horizon; hz++ {
				vec[1+hz]++
			}
			k.notePath()
			return nil
		}
		if lastLevel {
			vec[0]++
			k.notePath()
			return nil
		}
		ck := status.MapKey{Ord: ord, Set: u.CompactKey()}
		ch := dagHash(ck)
		if n := k.tab.lookup(ch, ck); n != nil {
			k.reusedN++
			addVec(vec, k.vecOf(n.vec))
			return nil
		}
		x := e.arena.Union(st.Completed, sel)
		cst := status.Status{Term: next, Completed: x, Options: e.cat.OptionsArena(&e.arena, x, next)}
		cv, ok := k.build(ch, ck, cst, depth+1)
		// The recursion repointed selScratch at its own depth's set;
		// restore ours before selections hands out the next sel.
		e.selScratch = &k.wscr[depth]
		addVec(vec, cv)
		if !ok {
			stopped = true
			return errStopRun
		}
		return nil
	})
	if childless && !stopped {
		// Natural dead end: a generated maximal path that reaches no goal
		// under any deadline.
		vec[0] = 1
		k.notePath()
	}
	return !stopped
}

// SharedCounter is the long-lived substrate: a countKernel shared across
// queries behind a read-write lock. Construct one per (catalog variant,
// goal, end, horizon, options) — NewSharedCounter pins those — and query
// it with any number of start statuses.
type SharedCounter struct {
	mu sync.RWMutex

	cat     *catalog.Catalog
	end     term.Term // base deadline; the engine's deadline is end+horizon
	horizon int
	goal    degree.Goal
	pruners []Pruner
	opt     Options

	maxStatuses int64

	k *countKernel
	// ctl is the current build's control (the caller's context, no
	// budget), reinitialised per build so a build allocates none.
	ctl control

	// hits counts read-locked root lookups, so the hot path never takes
	// the write lock; the remaining stats are written under it.
	hits  atomic.Int64
	stats SharedStats
}

// NewSharedCounter builds an empty counter for the given variant: counts
// answer goal-path totals for every deadline in [end, end+horizon].
// maxStatuses bounds the interned statuses (0 = a default of ~1M); goal
// is required. The counter is safe for concurrent use.
func NewSharedCounter(cat *catalog.Catalog, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options, maxStatuses int64) (*SharedCounter, error) {
	switch {
	case cat == nil:
		return nil, fmt.Errorf("explore: NewSharedCounter: nil catalog")
	case goal == nil:
		return nil, fmt.Errorf("explore: NewSharedCounter requires a goal")
	case end.IsZero():
		return nil, fmt.Errorf("explore: NewSharedCounter: zero end term")
	case end.Calendar() != cat.Calendar():
		return nil, fmt.Errorf("explore: NewSharedCounter: end term calendar differs from catalog calendar")
	case horizon < 0:
		return nil, fmt.Errorf("explore: NewSharedCounter: negative horizon %d", horizon)
	case maxStatuses < 0:
		return nil, fmt.Errorf("explore: NewSharedCounter: negative status budget %d", maxStatuses)
	case opt.MaxPerTerm < 0:
		return nil, fmt.Errorf("explore: NewSharedCounter: negative MaxPerTerm %d", opt.MaxPerTerm)
	}
	if maxStatuses == 0 {
		maxStatuses = defaultSharedStatuses
	}
	c := &SharedCounter{
		cat: cat, end: end, horizon: horizon,
		goal: goal, pruners: pruners, opt: opt,
		maxStatuses: maxStatuses,
	}
	c.reset()
	return c, nil
}

// reset drops every interned status and the engine (whose arena holds
// their completed/option sets) wholesale. Caller holds mu.
func (c *SharedCounter) reset() {
	e := newEngine(c.cat, c.end.Add(c.horizon), c.goal, c.pruners, c.opt)
	c.k = newCountKernel(e, c.end, c.horizon)
	c.k.capStatuses = int(2 * c.maxStatuses)
}

// Stats snapshots the lifetime tallies.
func (c *SharedCounter) Stats() SharedStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.stats
	s.Statuses = int64(c.k.tab.n)
	s.Hits = c.hits.Load()
	return s
}

// Horizon returns the counter's deadline span.
func (c *SharedCounter) Horizon() int { return c.horizon }

// Counts answers one start status: the number of maximal paths (under
// the farthest deadline) and of goal-reaching paths under every deadline
// in [end, end+horizon]. The first query from a region of the status
// space pays for the DP over the statuses reachable from it; later
// queries from overlapping regions reuse every status already built,
// and a repeated start is a pure read-locked lookup.
//
// Counts are bit-identical to a GoalCountMulti run from the same start:
// both run the same kernel code. Unlike budgeted one-shot runs there are
// no partial results: a cancelled or over-budget build returns an error
// (already built subtrees are kept for the next caller unless the hard
// cap was hit, which evicts).
func (c *SharedCounter) Counts(ctx context.Context, start status.Status) (SharedCounts, error) {
	if start.Term.IsZero() || start.Term.Calendar() != c.cat.Calendar() {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: bad start term %v", start.Term)
	}
	if !start.Term.Before(c.end) {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: end semester %v is not after start %v", c.end, start.Term)
	}
	key := start.MapKey()
	h := dagHash(key)

	c.mu.RLock()
	if n := c.k.tab.lookup(h, key); n != nil {
		out := c.answer(c.k.vecOf(n.vec), true)
		c.mu.RUnlock()
		c.hits.Add(1)
		return out, nil
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.k
	if n := k.tab.lookup(h, key); n != nil { // raced with another builder
		c.hits.Add(1)
		return c.answer(k.vecOf(n.vec), true), nil
	}
	k.ctl = nil
	if done := ctx.Done(); done != nil {
		c.ctl = control{done: done, ctx: ctx}
		k.ctl = &c.ctl
	}
	k.newN, k.reusedN = 0, 0
	c.stats.Builds++
	k.reserve(start.Term)
	vec, ok := k.build(h, key, start, 0)
	k.ctl = nil
	c.stats.NewStatuses += k.newN
	c.stats.ReusedStatuses += k.reusedN
	if !ok {
		err := ctx.Err()
		if err == nil {
			err = errSharedBudget
		}
		if int64(k.tab.n) >= 2*c.maxStatuses {
			c.stats.Evictions++
			c.reset()
		}
		return SharedCounts{}, err
	}
	out := c.answer(vec, false)
	out.NewStatuses, out.ReusedStatuses = k.newN, k.reusedN
	if int64(k.tab.n) > c.maxStatuses {
		// Over budget: the answer stands (every tally is complete), but
		// the substrate is dropped so memory returns to the bound.
		c.stats.Evictions++
		c.reset()
	}
	return out, nil
}

func (c *SharedCounter) answer(vec []int64, hit bool) SharedCounts {
	out := SharedCounts{Paths: vec[0], GoalPaths: make([]int64, c.horizon+1), Hit: hit}
	copy(out.GoalPaths, vec[1:])
	return out
}

// errSharedBudget aborts a build that would exceed the hard status cap.
var errSharedBudget = fmt.Errorf("explore: shared counter over status budget")

// addVec adds src into dst; a nil src (a status cut before it was
// classified) adds nothing.
func addVec(dst, src []int64) {
	for i, v := range src {
		dst[i] += v
	}
}

// clampHz maps a goal semester's offset past the base deadline to the
// first horizon bucket it counts toward (goal reached at or before end
// counts toward every bucket).
func clampHz(d, horizon int) int {
	if d < 0 {
		return 0
	}
	if d > horizon {
		return horizon + 1 // counts toward nothing (cannot happen: folds stop at end+horizon)
	}
	return d
}
