package explore

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

// EventKind discriminates the events an exploration run emits.
type EventKind uint8

const (
	// KindEdge: the engine generated a transition from a parent status to
	// a child status (one course selection for one semester).
	KindEdge EventKind = iota + 1
	// KindPath: a maximal path ended — at a goal node, at the deadline
	// semester, or at a natural dead end. Steps holds the root→terminal
	// spine for tree-shaped runs.
	KindPath
	// KindPruned: a pruning strategy cut the node; no path continues
	// through it.
	KindPruned
	// KindProgress: a periodic tally snapshot from a long-running
	// exploration, for interactive progress reporting.
	KindProgress
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case KindEdge:
		return "edge"
	case KindPath:
		return "path"
	case KindPruned:
		return "pruned"
	case KindProgress:
		return "progress"
	default:
		return "unknown"
	}
}

// Step is one semester of a learning path: the term in which the
// selection was taken and the course set elected.
type Step struct {
	Term      term.Term
	Selection bitset.Set
}

// Progress is a periodic tally snapshot carried by KindProgress events.
type Progress struct {
	Nodes, Edges, Paths, GoalPaths int64
	PrunedTime, PrunedAvail        int64
}

// Event is one exploration event. Which fields are meaningful depends on
// Kind:
//
//   - KindEdge: Parent, Node (engine node ids), Status (the child),
//     Selection, Cost (the ranker's edge cost, 0 otherwise) and Reused
//     (the child was an already-interned node — MergeStatuses
//     materialisation only).
//   - KindPath: Node (-1 on the DAG substrate's unfold, which has no
//     per-path node identity), Status (the terminal), Goal, Steps (the
//     root→terminal spine; shared with the engine, copy to retain), and
//     for ranked runs PathCost/PathValue.
//   - KindPruned: Node, Status, Strategy (the pruner's name).
//   - KindProgress: Progress.
//
// Events are emitted synchronously from the engine's expansion loop;
// a slow Sink slows the run.
type Event struct {
	Kind EventKind

	Parent, Node int64
	Status       status.Status
	Selection    bitset.Set
	Cost         float64
	Reused       bool

	Goal                bool
	Steps               []Step
	PathCost, PathValue float64

	Strategy string

	Progress Progress
}

// Sink receives exploration events. Returning ErrStopEmit ends the run
// cleanly (Result.Stopped = StopSink); any other error aborts it and is
// returned to the caller. Every run emits from one goroutine, so a Sink
// never sees concurrent calls.
type Sink interface {
	Emit(Event) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event) error

// Emit calls f.
func (f SinkFunc) Emit(ev Event) error { return f(ev) }

// ErrStopEmit, returned from Sink.Emit, stops the run cleanly: the engine
// unwinds, the partial tallies are returned, and Result.Stopped is
// StopSink. It is the streaming analogue of a budget stop.
var ErrStopEmit = errors.New("explore: sink stopped emission")

// Tee fans each event out to every sink in order, stopping at the first
// error.
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(ev Event) error {
		for _, s := range sinks {
			if err := s.Emit(ev); err != nil {
				return err
			}
		}
		return nil
	})
}

// CountingSink tallies the events flowing through it — the streaming
// equivalent of Result's counters — and forwards to Next when non-nil.
type CountingSink struct {
	Next Sink

	Edges, Paths, GoalPaths, Pruned int64
}

// Emit tallies ev and forwards it.
func (s *CountingSink) Emit(ev Event) error {
	switch ev.Kind {
	case KindEdge:
		s.Edges++
	case KindPath:
		s.Paths++
		if ev.Goal {
			s.GoalPaths++
		}
	case KindPruned:
		s.Pruned++
	}
	if s.Next == nil {
		return nil
	}
	return s.Next.Emit(ev)
}

// PathBudgetSink forwards events to Next until MaxPaths path events have
// passed, then returns ErrStopEmit — a consumer-side path budget that
// composes with (and is independent of) the engine's Budget.MaxPaths.
type PathBudgetSink struct {
	Next     Sink
	MaxPaths int64

	seen int64
}

// Emit forwards ev, stopping the run after MaxPaths paths.
func (s *PathBudgetSink) Emit(ev Event) error {
	if ev.Kind == KindPath {
		if s.MaxPaths > 0 && s.seen >= s.MaxPaths {
			return ErrStopEmit
		}
		s.seen++
	}
	if s.Next == nil {
		return nil
	}
	if err := s.Next.Emit(ev); err != nil {
		return err
	}
	if ev.Kind == KindPath && s.MaxPaths > 0 && s.seen >= s.MaxPaths {
		return ErrStopEmit
	}
	return nil
}

// DedupSink suppresses duplicate path events (same spine), forwarding
// only the first occurrence of each path to Next. Non-path events pass
// through. Useful over merged or restarted runs where the same path may
// surface more than once.
type DedupSink struct {
	Next Sink

	seen map[string]struct{}
}

// Emit forwards ev unless it is a path already seen.
func (s *DedupSink) Emit(ev Event) error {
	if ev.Kind == KindPath {
		if s.seen == nil {
			s.seen = map[string]struct{}{}
		}
		key := stepKey(ev.Steps)
		if _, dup := s.seen[key]; dup {
			return nil
		}
		s.seen[key] = struct{}{}
	}
	if s.Next == nil {
		return nil
	}
	return s.Next.Emit(ev)
}

// stepKey serialises a spine into a map key.
func stepKey(steps []Step) string {
	var b strings.Builder
	for _, st := range steps {
		fmt.Fprintf(&b, "%d@%s/", st.Term.Ordinal(), st.Selection.Key())
	}
	return b.String()
}

// MeterSink counts events and paths with atomic counters safe to read
// while the run is in flight — the hook usage metering layers on a
// streaming run without waiting for its Result.
type MeterSink struct {
	Next Sink

	Events atomic.Int64
	Paths  atomic.Int64
}

// Emit meters ev and forwards it.
func (s *MeterSink) Emit(ev Event) error {
	s.Events.Add(1)
	if ev.Kind == KindPath {
		s.Paths.Add(1)
	}
	if s.Next == nil {
		return nil
	}
	return s.Next.Emit(ev)
}

// CollectSink materialises the event stream back into a learning graph —
// the legacy Deadline/Goal Result is exactly a streaming run collected by
// this sink. It consumes edge events to build nodes and transitions
// (mapping engine node ids to graph ids) and path/pruned events to mark
// goal and pruned nodes.
//
// CollectSink requires a tree-walk run, which numbers its nodes; the DAG
// substrate (SubstrateDAG, or MergeStatuses on a stream) emits no edge
// events.
type CollectSink struct {
	g   *graph.Graph
	ids map[int64]graph.NodeID
}

// NewCollectSink returns a collector rooted at the run's start status.
func NewCollectSink(start status.Status) *CollectSink {
	c := &CollectSink{g: graph.New(start), ids: map[int64]graph.NodeID{}}
	c.ids[0] = c.g.Root()
	return c
}

// Graph returns the materialised graph (valid after the run completes).
func (c *CollectSink) Graph() *graph.Graph { return c.g }

// MaterializedOrder rewrites a tree collected from a streaming run into
// the node and edge numbering a materialising run produces. The two
// expansion orders generate the same tree but number it differently:
// streaming descends into each child as its selection is enumerated
// (depth-first ids), while a materialising run creates every child of a
// node consecutively in selection order and then expands the children
// last-first (the legacy worklist's LIFO order). Renumbering lets a
// stream-collected graph serialise byte-identically to the graph
// Deadline/Goal would have materialised for the same query.
//
// src must be a tree (CollectSink already requires interning off); the
// result shares src's Selection bitsets but owns its own structure.
func MaterializedOrder(src *graph.Graph) *graph.Graph {
	type frame struct{ old, new graph.NodeID }
	dst := graph.New(src.Node(src.Root()).Status)
	copyMarks := func(from *graph.Node, to graph.NodeID) {
		if from.Goal {
			dst.MarkGoal(to)
		}
		if from.Pruned {
			dst.MarkPruned(to)
		}
	}
	copyMarks(src.Node(src.Root()), dst.Root())
	stack := []frame{{src.Root(), dst.Root()}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Children first get consecutive ids in selection order...
		for _, e := range src.Node(f.old).Out {
			ed := src.Edge(e)
			child := src.Node(ed.To)
			nid := dst.AddNode(child.Status)
			dst.AddEdge(f.new, nid, ed.Selection, ed.Cost)
			copyMarks(child, nid)
			stack = append(stack, frame{ed.To, nid})
		}
		// ...and the LIFO pop expands the last child next.
	}
	return dst
}

// Emit applies ev to the graph under construction.
func (c *CollectSink) Emit(ev Event) error {
	switch ev.Kind {
	case KindEdge:
		parent, ok := c.ids[ev.Parent]
		if !ok {
			return errors.New("explore: CollectSink saw an edge from an unknown node")
		}
		child, ok := c.ids[ev.Node]
		if !ok {
			child = c.g.AddNode(ev.Status)
			c.ids[ev.Node] = child
		}
		c.g.AddEdge(parent, child, ev.Selection, ev.Cost)
	case KindPath:
		if ev.Goal {
			if id, ok := c.ids[ev.Node]; ok {
				c.g.MarkGoal(id)
			}
		}
	case KindPruned:
		if id, ok := c.ids[ev.Node]; ok {
			c.g.MarkPruned(id)
		}
	}
	return nil
}
