package coursenav

import (
	"context"
	"errors"
	"iter"

	"repro/internal/explore"
)

// ErrStopStream, returned from a stream callback, ends the exploration
// cleanly: the run unwinds, and the returned Summary reports the partial
// tallies with Stopped == "sink". Any other callback error aborts the run
// and is returned as-is.
var ErrStopStream = errors.New("coursenav: stop streaming")

// ErrMergedStreamUnsupported reports a request that cannot honour
// Query.MergeStatuses because it needs the tree walk, which never merges
// statuses: a count or stream with Substrate "tree", or a StreamCollect,
// whose graph needs the tree walk's per-path node identity. Plain streams
// and counts merge on the DAG substrate — statuses are interned during
// construction and every full path is still emitted — so leave
// Query.Substrate as "auto"/"dag", or turn MergeStatuses off. It is
// explore.ErrMergeTree; test with errors.Is.
var ErrMergedStreamUnsupported = explore.ErrMergeTree

// StreamedPath is one incrementally delivered learning path.
type StreamedPath struct {
	Path
	// Goal reports whether the path ends at a goal-satisfying status.
	// Always false for deadline-driven streams (which have no goal) and
	// always true for ranked streams (which emit only goal paths).
	Goal bool `json:"goal"`
}

// pathFromSteps converts an engine spine into a presentation Path. The
// spine is borrowed from the engine, but Label/IDs copy everything the
// Path retains.
func (n *Navigator) pathFromSteps(steps []explore.Step) Path {
	sems := make([]Selection, len(steps))
	for i, s := range steps {
		sems[i] = Selection{Term: s.Term.Label(), Courses: n.cat.IDs(s.Selection)}
	}
	return Path{Semesters: sems}
}

// Stream runs q in streaming mode: every path is delivered to fn as soon
// as the engine completes it, and no graph is materialised — memory stays
// proportional to the search depth rather than the path count, the
// property that makes Table-2-scale windows interactive. The run honours
// ctx and Query.Budget like every terminal operation; a stopped run has
// delivered a prefix of the paths and the returned Summary names the
// cause. fn may return ErrStopStream to stop early. Query.MaxNodes is
// ignored — the hard node cap exists to bound materialised graphs, which
// streaming runs never build (use Query.Budget.MaxNodes to bound work).
//
// A deadline-driven query delivers every maximal path. A goal-driven one
// runs the §4.2 pruners (unless Query.NoPruning), and each path's Goal
// field reports whether it ends at a goal-satisfying status: paths that
// reach the deadline without the goal are delivered too — filter on Goal
// for goal paths only. A ranked query delivers each of the K best goal
// paths the moment best-first search pops it, in rank order (best
// first) — the first path arrives after exploring a tiny fraction of the
// graph — with Cost/Value set; stopping early leaves the delivered paths
// exactly the best ones, in order.
//
// Query.MergeStatuses runs a deadline or goal stream on the DAG
// substrate: the engine interns (merges) statuses while building the
// interned-status DAG, then lazily unfolds it so every full path is
// still delivered, in the tree walk's depth-first order. Combining
// MergeStatuses with Substrate "tree" returns ErrMergedStreamUnsupported
// — the tree walk never merges.
func (n *Navigator) Stream(ctx context.Context, q Query, fn func(StreamedPath) error) (Summary, error) {
	if fn == nil {
		return Summary{}, errNoCallback
	}
	p, err := n.compile(q, opStream)
	if err != nil {
		return Summary{}, err
	}
	if p.ranker != nil {
		res, err := explore.RankedStream(ctx, n.cat, p.start, p.end, p.goal, p.ranker, p.k, n.pruners(p), p.opt, n.pathSink(fn))
		return summarizeRanked(res), err
	}
	res, err := explore.Stream(ctx, n.cat, p.start, p.end, p.goal, n.pruners(p), p.opt, n.pathSink(fn))
	return summarize(res), err
}

var errNoCallback = errors.New("coursenav: streaming requires a callback")

// pathSink adapts a stream callback into an engine sink that delivers
// path events, translating ErrStopStream into the engine's clean stop.
func (n *Navigator) pathSink(fn func(StreamedPath) error) explore.Sink {
	return explore.SinkFunc(func(ev explore.Event) error {
		if ev.Kind != explore.KindPath {
			return nil
		}
		p := n.pathFromSteps(ev.Steps)
		p.Cost, p.Value = ev.PathCost, ev.PathValue
		if err := fn(StreamedPath{Path: p, Goal: ev.Goal}); err != nil {
			if errors.Is(err, ErrStopStream) {
				return explore.ErrStopEmit
			}
			return err
		}
		return nil
	})
}

// StreamCollect is Stream for a deadline or goal query with an
// opportunistic graph collection riding along: paths are delivered to fn
// exactly as Stream would, and when the run completes cleanly with at
// most Query.MaxNodes graph nodes (0 = unlimited) the materialised
// learning graph is returned too — the same graph Collect would have
// built. The graph is nil whenever it cannot be collected faithfully: the
// run stopped early or failed, or the node count exceeded Query.MaxNodes
// (the condition Collect reports as an error). Collection never disturbs
// delivery — overflow simply stops collecting while paths keep flowing.
// Query.MergeStatuses is rejected with ErrMergedStreamUnsupported:
// collection needs the tree walk.
func (n *Navigator) StreamCollect(ctx context.Context, q Query, fn func(StreamedPath) error) (*Graph, Summary, error) {
	if q.MergeStatuses {
		// Collection rebuilds the materialised graph from edge events,
		// which only the tree walk produces; the DAG unfold has no per-path
		// node identity to collect.
		return nil, Summary{}, ErrMergedStreamUnsupported
	}
	if fn == nil {
		return nil, Summary{}, errNoCallback
	}
	p, err := n.compile(q, opStreamCollect)
	if err != nil {
		return nil, Summary{}, err
	}
	// nodes starts at 1 for the root, matching the materialised run's
	// tally, so overflow fires on exactly the graphs Collect rejects.
	cc := &cappedCollect{collect: explore.NewCollectSink(p.start), nodes: 1, max: q.MaxNodes}
	res, err := explore.Stream(ctx, n.cat, p.start, p.end, p.goal, n.pruners(p), p.opt, explore.Tee(cc, n.pathSink(fn)))
	sum := summarize(res)
	if err != nil || cc.overflow {
		return nil, sum, err
	}
	// Renumber into materialised order so the collected graph is
	// indistinguishable — byte for byte once serialised — from the graph
	// Collect would have built for the same query.
	return &Graph{cat: n.cat, g: explore.MaterializedOrder(cc.collect.Graph())}, sum, nil
}

// cappedCollect feeds a CollectSink until the node count exceeds max,
// then silently stops collecting (overflow). Collector trouble must never
// abort the client-facing stream it tees with, so Emit never errors.
type cappedCollect struct {
	collect  *explore.CollectSink
	nodes    int
	max      int
	overflow bool
}

func (c *cappedCollect) Emit(ev explore.Event) error {
	if c.overflow {
		return nil
	}
	if ev.Kind == explore.KindEdge {
		c.nodes++
		if c.max > 0 && c.nodes > c.max {
			c.overflow = true
			return nil
		}
	}
	if c.collect.Emit(ev) != nil {
		c.overflow = true
	}
	return nil
}

// WhatIfStream is WhatIf in streaming mode: each candidate selection's
// impact is delivered to fn the moment its count completes, in
// enumeration order rather than sorted impact order (every delivered
// tally is exact — sort client-side if needed). fn may return
// ErrStopStream to stop early. The returned string is the stop reason,
// empty for a complete comparison.
func (n *Navigator) WhatIfStream(ctx context.Context, q Query, fn func(SelectionImpact) error) (string, error) {
	if fn == nil {
		return "", errNoCallback
	}
	p, err := n.compile(q, opWhatIf)
	if err != nil {
		return "", err
	}
	return explore.CompareSelectionsStream(ctx, n.cat, p.start, p.end, p.goal, n.pruners(p), p.opt, func(im explore.SelectionImpact) error {
		err := fn(n.impact(im))
		if errors.Is(err, ErrStopStream) {
			return explore.ErrStopEmit
		}
		return err
	})
}

// Seq returns Stream as a range-over-func iterator:
//
//	for p, err := range nav.Seq(ctx, q) {
//	    if err != nil { ... }
//	    fmt.Println(p)
//	}
//
// Breaking out of the loop stops the exploration. A run error is yielded
// as the final (zero-path, non-nil error) pair. No goroutines: the
// exploration runs inside the loop body's frames, and breaking the loop
// translates into ErrStopStream. Use Stream directly when the final
// Summary is needed.
func (n *Navigator) Seq(ctx context.Context, q Query) iter.Seq2[StreamedPath, error] {
	return func(yield func(StreamedPath, error) bool) {
		_, err := n.Stream(ctx, q, func(p StreamedPath) error {
			if !yield(p, nil) {
				return ErrStopStream
			}
			return nil
		})
		if err != nil {
			yield(StreamedPath{}, err)
		}
	}
}
