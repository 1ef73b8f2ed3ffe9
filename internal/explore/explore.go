// Package explore implements CourseNavigator's three learning-path
// generation algorithms (paper §4):
//
//   - Deadline-driven (Algorithm 1): all learning paths from the student's
//     current enrollment status to a given end semester.
//   - Goal-driven (§4.2): the subset of those paths whose final status
//     satisfies a goal requirement, generated with the time-based and
//     course-availability pruning strategies.
//   - Ranked (§4.3): the top-k goal-driven paths under a user-chosen
//     ranking function, via best-first search.
//
// All three share one expansion engine; they differ in the goal predicate,
// the active pruners, and the search order.
package explore

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/combin"
	"repro/internal/degree"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

// EmptyPolicy controls when the engine emits an empty course selection
// (W = {}), i.e. a semester in which the student takes nothing.
type EmptyPolicy uint8

const (
	// EmptyWhenStuck emits the empty transition only when the option set Y
	// is empty and some not-yet-completed course is offered in a later
	// course-taking semester. This matches the paper's Figure 3, where the
	// stuck node n4 advances (W = {}) but the fully-done node n6 stops.
	EmptyWhenStuck EmptyPolicy = iota
	// EmptyNever never emits empty transitions; stuck nodes terminate.
	EmptyNever
	// EmptyAlways emits the empty transition from every expandable node in
	// addition to its course selections — a documented extension that lets
	// students model semesters off even when courses are available.
	EmptyAlways
)

// String returns the policy name.
func (p EmptyPolicy) String() string {
	switch p {
	case EmptyWhenStuck:
		return "when-stuck"
	case EmptyNever:
		return "never"
	case EmptyAlways:
		return "always"
	default:
		return fmt.Sprintf("EmptyPolicy(%d)", uint8(p))
	}
}

// Substrate selects the search structure an exploration runs against.
type Substrate uint8

const (
	// SubstrateAuto lets the entry point choose. The legacy explore entry
	// points resolve it to the tree walk (their documented tallies — node
	// and edge counts, the per-strategy prune split — are tree
	// quantities) unless Options.MergeStatuses asks for interning on a
	// counting or streaming run, which then runs on the DAG; the façade's
	// count-only paths resolve it to the DAG.
	SubstrateAuto Substrate = iota
	// SubstrateTree walks the search tree: cost scales with the number of
	// paths. Required for materialising runs, and the only substrate whose
	// Result reproduces the paper's Table 1/2 node tallies.
	SubstrateTree
	// SubstrateDAG interns statuses into the (semester, completed) DAG once
	// and answers counting queries by bottom-up dynamic programming over
	// distinct statuses — cost scales with |distinct statuses|, not
	// |paths|. Result.Nodes/Edges/Pruned* then count distinct statuses.
	// Streaming runs lazily unfold the DAG back into full paths.
	// Materialising runs reject it (ErrSubstrateDAGMaterialize).
	SubstrateDAG
)

// String returns the substrate name.
func (s Substrate) String() string {
	switch s {
	case SubstrateAuto:
		return "auto"
	case SubstrateTree:
		return "tree"
	case SubstrateDAG:
		return "dag"
	default:
		return fmt.Sprintf("Substrate(%d)", uint8(s))
	}
}

// Options configures an exploration run.
type Options struct {
	// MaxPerTerm is the paper's m: the most courses the student will take
	// in one semester. 0 means unlimited.
	MaxPerTerm int
	// Empty selects the empty-selection policy; the zero value is the
	// paper-faithful EmptyWhenStuck.
	Empty EmptyPolicy
	// MergeStatuses interns nodes with identical (semester, completed)
	// pairs. A materialising run then builds the merged graph (a DAG); a
	// counting or streaming run resolves it to SubstrateDAG — the counting
	// kernel, or the DAG's lazy unfold — and fails with ErrMergeTree when
	// Substrate forces the tree walk, which never merges. This is the
	// ablation of DESIGN.md §2; the paper's algorithm runs with it off.
	MergeStatuses bool
	// MaxNodes aborts materialisation with ErrGraphTooLarge once the graph
	// reaches this many nodes, emulating the paper's out-of-memory rows in
	// Table 2. 0 means unlimited.
	MaxNodes int
	// Constraints restrict electable selections (courses to avoid,
	// per-semester workload ceilings, co-requisite groups, …); see
	// Constraint. A rejected selection appears on no generated path.
	Constraints []Constraint
	// MaxPathCost, when positive, makes the ranked algorithm return only
	// paths whose total ranking cost is at most this threshold (§4.3.1's
	// workload-threshold queries). Ignored by Deadline and Goal.
	MaxPathCost float64
	// MinTakeFilter suppresses course selections smaller than the
	// time-based strategy's per-semester minimum at generation time,
	// instead of generating the children and letting the strategy prune
	// them on expansion as the paper's algorithm does. Path counts are
	// unchanged (the skipped children are exactly the ones the child-side
	// check cuts); node counts and the per-strategy prune split shift.
	// Off by default for paper fidelity; an ablation benchmark compares.
	MinTakeFilter bool
	// Budget bounds the run's wall clock, generated statuses and tallied
	// paths. Exhausting any bound ends the run with a partial Result
	// (Result.Stopped names the bound) and a nil error, unlike MaxNodes'
	// hard ErrGraphTooLarge failure. The zero Budget imposes no bounds.
	Budget Budget
	// Substrate selects the search structure (tree walk or interned-status
	// DAG); see Substrate. The zero value SubstrateAuto keeps the tree walk
	// on these entry points.
	Substrate Substrate
}

// ErrGraphTooLarge is returned when materialisation exceeds
// Options.MaxNodes.
var ErrGraphTooLarge = errors.New("explore: learning graph exceeds node budget")

// Result reports an exploration run. Graph is nil for counting runs.
type Result struct {
	// Graph is the materialised learning graph (nil in counting mode).
	Graph *graph.Graph
	// Paths is the number of generated learning paths: maximal paths whose
	// endpoint was not cut by a pruner. This is the "# of paths" quantity
	// of the paper's Tables 1 and 2 for both algorithms.
	Paths int64
	// GoalPaths is the number of generated paths ending at a node that
	// satisfies the goal (equal to Paths on runs where pruning removes
	// every dead end; always 0 for deadline-driven runs).
	GoalPaths int64
	// Nodes and Edges count generated statuses and transitions, including
	// ones later found to be dead ends.
	Nodes, Edges int64
	// PrunedTime and PrunedAvail count nodes cut by the time-based and
	// course-availability strategies (paper Table 1's 82%/18% split).
	PrunedTime, PrunedAvail int64
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
	// Stopped names why the run ended early — StopCanceled, StopDeadline,
	// StopMaxNodes or StopMaxPaths — and is empty for a run that exhausted
	// its search space. A stopped run's tallies (and Graph, when
	// materialising) cover the work done before the stop: every reported
	// path is a real path, but the totals are lower bounds.
	Stopped string
	// Truncated reports a partial run (equivalent to Stopped != "").
	Truncated bool
	// DAG reports that the run was answered over the interned-status DAG
	// substrate (SubstrateDAG). Nodes, Edges and the Pruned* tallies then
	// count distinct statuses rather than tree visits; Paths/GoalPaths are
	// the exact path counts either way. Counting runs additionally fold
	// terminal children into the path tallies at edge level without
	// interning them, so their Nodes counts only the distinct expandable
	// and pruned statuses (streaming runs intern terminals too, for the
	// unfold).
	DAG bool
}

// PrunedTotal returns the total nodes cut by pruning strategies.
func (r Result) PrunedTotal() int64 { return r.PrunedTime + r.PrunedAvail }

// engine is the shared expansion machinery. An engine (and everything it
// caches) belongs to a single goroutine.
type engine struct {
	cat     *catalog.Catalog
	end     term.Term
	opt     Options
	goal    degree.Goal // memoised wrapper; nil for deadline-driven runs
	pruners []Pruner    // cache-wrapped paper strategies

	// rawGoal is the caller's original goal, kept so wrapPruner can hand
	// pruners sharing it the engine's memoised wrapper.
	rawGoal degree.Goal
	tc      *termCache

	// ctl is the run's cancellation/budget state; nil on unbounded
	// background-context runs (the common library path pays no per-node
	// check).
	ctl *control

	intern map[status.MapKey]int64 // materialising with MergeStatuses
	res    Result

	// sink receives the run's event stream; nil when nobody listens (the
	// pure-counting hot path then skips every emission site). materialized
	// runs always carry at least the internal CollectSink.
	sink         Sink
	materialized bool
	// nextID numbers the tree walk's generated nodes (root = 0) so a
	// CollectSink can rebuild the graph.
	nextID int64
	// spine is the root→current-node walk, shared with emitted path events.
	spine []Step
	// visits gates periodic KindProgress events; emitPaths/emitGoal are the
	// progress-snapshot path tallies.
	visits, emitPaths, emitGoal int64
	// prunedBy names the strategy behind the most recent classPruned.
	prunedBy string

	// arena batch-allocates the walk's per-edge bitsets (selection sets,
	// advanced completed sets, option sets). Regions are never recycled, so
	// the sets are safe to retain in events, graphs and memo keys; see
	// bitset.Arena.
	arena bitset.Arena
	// selScratch, when set, makes selections hand out this one reused set
	// instead of a fresh arena allocation per selection. Only the DAG's
	// counting kernel enables it: that path consumes each selection before
	// asking for the next and retains nothing, so the per-edge arena
	// allocation (never recycled) would be pure waste at DAG scale.
	selScratch *bitset.Set
	// scratches and kidsFree are free lists for the walk's recursion-local
	// buffers (combination enumeration state, expandMaterialized's child
	// collection). The walk nests — a selections callback recurses into
	// walk, which enumerates again — so each depth pops its own buffer and
	// pushes it back on return; the engine is single-goroutine, so a plain
	// slice stack suffices.
	scratches []*combin.Scratch
	kidsFree  [][]childRef
}

// childRef is expandMaterialized's record of a created-but-not-yet-expanded
// child.
type childRef struct {
	st  status.Status
	id  int64
	sel bitset.Set
}

func newEngine(cat *catalog.Catalog, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) *engine {
	e := &engine{cat: cat, end: end, opt: opt, rawGoal: goal}
	e.tc = newTermCache(cat, end)
	e.goal = degree.Memoize(goal)
	if len(pruners) > 0 {
		e.pruners = make([]Pruner, len(pruners))
		for i, p := range pruners {
			e.pruners[i] = e.wrapPruner(p)
		}
	}
	return e
}

// nodeClass is the engine's classification of a status before expansion.
type nodeClass uint8

const (
	classExpand   nodeClass = iota
	classGoal               // status satisfies the goal: end node, counts as a path
	classDeadline           // status is at the end semester: end node
	classPruned             // a pruning strategy cut the node
)

// classify decides what to do at a status and, for expandable nodes, the
// minimum selection size the time-based strategy imposes.
func (e *engine) classify(st status.Status) (nodeClass, int) {
	if e.goal != nil && e.goal.Satisfied(st.Completed) {
		return classGoal, 0
	}
	if !st.Term.Before(e.end) {
		return classDeadline, 0
	}
	return e.classifyPruned(st)
}

// classifyPruned is classify's pruning stage, for callers that have
// already ruled out the goal and deadline terminals (the DAG's counting
// kernel, which folds terminal children without ever deriving their
// option sets).
func (e *engine) classifyPruned(st status.Status) (nodeClass, int) {
	minTake := 0
	for _, p := range e.pruners {
		prune, mt := p.Check(st, e.end)
		if prune {
			switch p.Name() {
			case PrunerTimeName:
				e.res.PrunedTime++
			case PrunerAvailName:
				e.res.PrunedAvail++
			}
			e.prunedBy = p.Name()
			return classPruned, 0
		}
		if mt > minTake {
			minTake = mt
		}
	}
	return classExpand, minTake
}

// futureCourseExists reports whether a not-yet-completed course is offered
// in any course-taking semester after st.Term (i.e. in (st.Term, end−1]).
// It gates the EmptyWhenStuck transition: Figure 3's n6 stops because
// everything is complete, while n4 advances to reach 11A in Fall '12.
// The offered union comes from the per-term cache and the emptiness test
// is a subset check, so the per-node cost is allocation-free.
func (e *engine) futureCourseExists(st status.Status) bool {
	next := st.Term.Next()
	if next.After(e.tc.lastTaking) {
		return false
	}
	return !e.tc.offeredFrom(next).SubsetOf(st.Completed)
}

// popScratch and pushScratch manage the free list of combination buffers;
// see the scratches field.
func (e *engine) popScratch() *combin.Scratch {
	if n := len(e.scratches); n > 0 {
		s := e.scratches[n-1]
		e.scratches = e.scratches[:n-1]
		return s
	}
	return new(combin.Scratch)
}

func (e *engine) pushScratch(s *combin.Scratch) {
	e.scratches = append(e.scratches, s)
}

// reserveScratches tops the free list up to k buffers, each sized for any
// option set of the catalog and any selection size, all carved from one
// allocation, so a walk nesting k enumerations deep allocates none. Call
// it only while no enumeration is running (every buffer is then on the
// free list).
func (e *engine) reserveScratches(k int) {
	have := len(e.scratches)
	if have >= k {
		return
	}
	n, m := e.cat.Len(), e.opt.MaxPerTerm
	if m <= 0 || m > n {
		m = n
	}
	more := combin.NewScratches(k-have, n, m)
	e.scratches = slices.Grow(e.scratches, len(more))
	for i := range more {
		e.scratches = append(e.scratches, &more[i])
	}
}

// advance is status.Advance drawing the child's completed and option sets
// from the engine arena — the walk's two per-edge allocations.
func (e *engine) advance(st status.Status, w bitset.Set) status.Status {
	next := st.Term.Next()
	x := e.arena.Union(st.Completed, w)
	return status.Status{Term: next, Completed: x, Options: e.cat.OptionsArena(&e.arena, x, next)}
}

// selections enumerates the course selections W out of st, honouring
// MaxPerTerm, the time-based minimum, and the empty-selection policy. The
// set passed to fn is arena-backed, handed out exactly once, and owned by
// the callee, exactly as if freshly allocated — unless e.selScratch is
// set, in which case every callback receives the same reused set and must
// consume it before returning.
func (e *engine) selections(st status.Status, minTake int, fn func(w bitset.Set) error) error {
	n := e.cat.Len()
	emitted := false
	var err error
	if !e.opt.MinTakeFilter {
		minTake = 0
	}
	sc := e.popScratch()
	defer e.pushScratch(sc)
	sc.ForEachCombination(st.Options, e.opt.MaxPerTerm, func(comb []int) bool {
		if len(comb) < minTake {
			return true
		}
		var w bitset.Set
		if e.selScratch != nil {
			e.selScratch.SetTo(n, comb)
			w = *e.selScratch
		} else {
			w = e.arena.FromMembers(n, comb)
		}
		if !e.allowed(st, w) {
			return true
		}
		emitted = true
		err = fn(w)
		return err == nil
	})
	if err != nil {
		return err
	}
	emitEmpty := false
	switch e.opt.Empty {
	case EmptyAlways:
		emitEmpty = minTake == 0
	case EmptyWhenStuck:
		emitEmpty = !emitted && minTake == 0 && e.futureCourseExists(st)
	case EmptyNever:
	}
	if emitEmpty {
		var w bitset.Set
		if e.selScratch != nil {
			e.selScratch.SetTo(n, nil)
			w = *e.selScratch
		} else {
			w = e.arena.Make(n)
		}
		if e.allowed(st, w) {
			return fn(w)
		}
	}
	return nil
}

// allowed applies the run's selection constraints.
func (e *engine) allowed(st status.Status, w bitset.Set) bool {
	for _, c := range e.opt.Constraints {
		if !c.Allow(st, w) {
			return false
		}
	}
	return true
}
