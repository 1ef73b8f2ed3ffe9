package explore

import (
	"context"
	"errors"
	"time"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// This file implements the interned-status DAG substrate's drivers
// (DESIGN.md §13): the (semester, completed) statuses reachable from the
// start form a DAG — every edge advances the term by one semester — and
// every counting quantity the tree walk tallies per path can instead be
// computed by dynamic programming over distinct statuses. Classification
// (goal test, deadline test, both pruning strategies) and selection
// enumeration depend only on the status itself, never on the path that
// reached it, so a status's subtree tally is a function of the status:
// the DP totals are bit-identical to the tree walk's, at a cost of
// |distinct statuses| instead of |paths|.
//
// Counting runs — deadline and goal counts, the multi-deadline probe,
// what-if — run on the memoised depth-first kernel (countKernel,
// dag_shared.go). Streaming runs need the edges themselves, in
// enumeration order, so the lazy unfold can re-emit every path: the
// stream builder below interns every status, terminals included,
// breadth-first, and records each node's edges.

// ErrSubstrateDAGMaterialize rejects a materialising run on the DAG
// substrate: a materialised learning graph is the tree (per-path node
// identity), which the DAG never builds. Use SubstrateTree, or stream
// paths and let the engine lazily unfold the DAG.
var ErrSubstrateDAGMaterialize = errors.New("explore: the DAG substrate cannot materialise a learning graph; use SubstrateTree, or Stream to lazily unfold paths")

// dagNode is one interned (semester, completed) status of a streaming
// build. A node is created exactly once — by whichever expansion first
// reaches the status — classified at creation, and its edge list filled
// once.
type dagNode struct {
	// key is the node's interning key, (Term, Completed) — stored here,
	// not in the intern table (see internTableOf).
	key   status.MapKey
	st    status.Status
	edges []dagEdge
	// minTake is the time-based strategy's minimum selection size.
	minTake int32
	class   nodeClass
	// deadEnd marks an expandable node whose selection enumeration emitted
	// nothing (a natural dead end like Figure 3's n6): a generated path.
	deadEnd bool
	// cut marks a placeholder interned after the node budget was exhausted:
	// the status was never generated (not classified) and ends no path.
	cut bool
}

// dagEdge is one selection out of a node, in enumeration order — the
// order the tree walk would descend, which lazy unfolding reproduces.
type dagEdge struct {
	sel bitset.Set
	to  *dagNode
}

// dagBuilder constructs a streaming run's DAG using the engine's
// classify/selections/arena machinery.
type dagBuilder struct {
	e     *engine
	tab   internTable
	slab  nodeSlab
	level []*dagNode // current BFS level being expanded
	next  []*dagNode // expandable nodes discovered for the next level

	// uscr is the completed-union scratch: child keys are probed from it,
	// so an intern hit computes the union without retaining arena memory.
	uscr bitset.Set
}

// add interns the root status.
func (b *dagBuilder) add(st status.Status) *dagNode {
	e := b.e
	n := b.slab.alloc()
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		n.cut = true
	} else {
		n.st = st
		cls, mt := e.classify(st)
		n.class, n.minTake = cls, int32(mt)
		e.res.Nodes++
		b.queue(n)
	}
	key := st.MapKey()
	b.tab.insert(dagHash(key), key, n)
	return n
}

// queue schedules a fresh expandable node for the next level.
func (b *dagBuilder) queue(n *dagNode) {
	if !n.cut && n.class == classExpand {
		b.next = append(b.next, n)
	}
}

// intern resolves the child key, creating the node on a miss.
func (b *dagBuilder) intern(h uint64, key status.MapKey, parent *dagNode, sel bitset.Set, next term.Term, terminal bool) *dagNode {
	if n := b.tab.lookup(h, key); n != nil {
		return n
	}
	n := b.create(parent, sel, next, terminal)
	b.tab.insert(h, key, n)
	b.queue(n)
	return n
}

// create generates and classifies the status reached from parent by
// electing sel, charging the run control exactly as the tree walk does:
// one noteNode per distinct interned status. Over budget, a cut
// placeholder is interned so lookups stay consistent. When the caller
// already knows the child is a terminal, the goal/deadline split is
// recomputed from the completed set; otherwise only the pruning stage
// runs.
func (b *dagBuilder) create(parent *dagNode, sel bitset.Set, next term.Term, terminal bool) *dagNode {
	e := b.e
	n := b.slab.alloc()
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		n.cut = true
		return n
	}
	x := e.arena.Union(parent.st.Completed, sel)
	st := status.Status{Term: next, Completed: x, Options: e.cat.OptionsArena(&e.arena, x, next)}
	n.st = st
	if terminal {
		if e.goal != nil && e.goal.Satisfied(x) {
			n.class = classGoal
		} else {
			n.class = classDeadline
		}
	} else {
		cls, mt := e.classifyPruned(st)
		n.class, n.minTake = cls, int32(mt)
	}
	e.res.Nodes++
	return n
}

// expand enumerates a node's selections once, interning every child and
// recording the edge. A budget stop mid-enumeration leaves the node
// partially expanded and suppresses the natural-dead-end classification
// (unexpanded ≠ childless).
func (b *dagBuilder) expand(n *dagNode) {
	e := b.e
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return
	}
	next := n.st.Term.Next()
	ord := int32(next.Ordinal())
	lastLevel := !next.Before(e.end)
	childless, stopped := true, false
	_ = e.selections(n.st, int(n.minTake), func(sel bitset.Set) error {
		if e.ctl.interrupted() {
			stopped = true
			return errStopRun
		}
		childless = false
		e.res.Edges++
		b.uscr.CopyFrom(n.st.Completed)
		b.uscr.UnionInPlace(sel)
		key := status.MapKey{Ord: ord, Set: b.uscr.CompactKey()}
		c := b.intern(dagHash(key), key, n, sel, next, lastLevel || (e.goal != nil && e.goal.Satisfied(b.uscr)))
		n.edges = append(n.edges, dagEdge{sel: sel, to: c})
		return nil
	})
	n.deadEnd = childless && !stopped
}

// build drains the levels breadth-first: children always land exactly one
// level down.
func (b *dagBuilder) build() {
	for len(b.next) > 0 {
		b.level, b.next = b.next, b.level[:0]
		for _, n := range b.level {
			b.expand(n)
		}
	}
}

// unfoldDAG lazily re-expands the DAG into full root→terminal paths,
// emitting a KindPath event per path in exactly the order the serial tree
// walk would: edges were recorded in selection-enumeration order, and the
// unfold descends them depth-first. Pruned, cut and unexpanded nodes end
// no path. Paths are charged against the run's path budget at emission.
func (e *engine) unfoldDAG(n *dagNode) error {
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return errStopRun
	}
	e.visits++
	if e.visits&8191 == 0 {
		if err := e.emit(Event{Kind: KindProgress, Progress: e.progress()}); err != nil {
			return err
		}
	}
	switch {
	case n.class == classGoal:
		err := e.emitTerminal(-1, n.st, true)
		e.notePaths(1)
		return err
	case n.class == classDeadline || n.deadEnd:
		err := e.emitTerminal(-1, n.st, false)
		e.notePaths(1)
		return err
	case n.class == classPruned || n.cut:
		return nil
	}
	for _, ed := range n.edges {
		e.spine = append(e.spine, Step{Term: n.st.Term, Selection: ed.sel})
		err := e.unfoldDAG(ed.to)
		e.spine = e.spine[:len(e.spine)-1]
		if err != nil {
			return err
		}
	}
	return nil
}

// MultiResult is the multi-deadline counting result: one kernel run at
// the farthest deadline, read out at every intermediate deadline.
type MultiResult struct {
	// GoalPathsAt[i] is the number of goal-reaching maximal paths under
	// deadline end+i semesters (i = 0..horizon); GoalPathsAt[horizon]
	// equals Result.GoalPaths. The totals are exact, not bounds: the
	// pruners are admissible for every deadline ≤ the farthest one, so a
	// goal reached on semester start+d belongs to exactly the deadlines
	// ≥ start+d.
	GoalPathsAt []int64
	Result
}

// countDAG answers a count on a throwaway kernel whose deadline is
// end+horizon. It returns the run's Result — Paths under the farthest
// deadline, GoalPaths under end+horizon — and the root's goal-path
// vector, entry h counting goal paths under deadline end+h. The vector
// is a view into the kernel's vector slab: copy it to retain it without
// pinning the slab. A stopped run's tallies are lower bounds.
func countDAG(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options) (Result, []int64) {
	e := newEngine(cat, end.Add(horizon), goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	began := time.Now()
	vec, _ := newCountKernel(e, end, horizon).root(start)
	e.res.DAG = true
	e.res.Paths, e.res.GoalPaths = vec[0], vec[1+horizon]
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	e.res.Truncated = e.res.Stopped != ""
	return e.res, vec[1:]
}

// runDAG is run's driver for SubstrateDAG. Counting runs go to the
// kernel; streaming runs build the DAG with recorded edges and lazily
// unfold it into path events. Budgets and cancellation flow through the
// same control as the tree walk; a stopped run returns lower-bound
// tallies with Result.Stopped naming the cause.
func runDAG(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, sink Sink) (Result, error) {
	if sink == nil {
		res, _ := countDAG(ctx, cat, start, end, 0, goal, pruners, opt)
		return res, nil
	}
	e := newEngine(cat, end, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	if e.ctl == nil {
		e.ctl = &control{done: ctx.Done(), ctx: ctx}
	}
	e.sink = sink

	began := time.Now()
	b := &dagBuilder{e: e}
	root := b.add(start)
	b.build()
	e.res.DAG = true

	err := e.unfoldDAG(root)
	sinkStopped := false
	switch {
	case errors.Is(err, errStopRun):
		err = nil
	case errors.Is(err, ErrStopEmit):
		err, sinkStopped = nil, true
	}
	// Delivered tallies: a stopped unfold has emitted a prefix of the
	// paths and reports exactly that prefix.
	e.res.Paths, e.res.GoalPaths = e.emitPaths, e.emitGoal
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	if e.res.Stopped == "" && sinkStopped {
		e.res.Stopped = StopSink
	}
	e.res.Truncated = e.res.Stopped != ""
	return e.res, err
}
