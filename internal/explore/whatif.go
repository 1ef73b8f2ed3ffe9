package explore

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// SelectionImpact scores one candidate selection for the current
// semester by its downstream consequences.
type SelectionImpact struct {
	// Selection is the candidate course set W for the current semester.
	Selection bitset.Set
	// GoalPaths counts the goal-reaching paths that remain available
	// after electing the selection.
	GoalPaths int64
	// Paths counts all remaining generated paths.
	Paths int64
	// NextOptions is the size of the option set Y one semester later.
	NextOptions int
}

// CompareSelections answers the paper's motivating what-if query
// ("which course selections increase my future course options and number
// of possible paths to a CS major?", §1): it enumerates every selection
// the student could make in the current semester — honouring MaxPerTerm,
// the empty-selection policy and Options.Constraints — and, for each,
// counts the goal paths from the resulting enrollment status. Results
// are sorted by descending GoalPaths (ties: more next-semester options,
// then smaller selections first).
//
// Counting runs on the DAG counting kernel (see CompareSelectionsStream),
// so the total work is bounded by the goal-driven DAG size rather than
// candidates × tree.
func CompareSelections(cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) ([]SelectionImpact, error) {
	out, _, err := CompareSelectionsCtx(context.Background(), cat, start, end, goal, pruners, opt)
	return out, err
}

// CompareSelectionsCtx is CompareSelections under a context. A cancelled
// or over-budget run returns the candidates fully scored before the stop
// (their tallies are exact) together with the stop reason; candidates
// whose count was interrupted are dropped rather than reported with
// partial tallies.
func CompareSelectionsCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) ([]SelectionImpact, string, error) {
	var out []SelectionImpact
	stopped, err := CompareSelectionsStream(ctx, cat, start, end, goal, pruners, opt, func(im SelectionImpact) error {
		out = append(out, im)
		return nil
	})
	if err != nil {
		return nil, stopped, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].GoalPaths != out[j].GoalPaths {
			return out[i].GoalPaths > out[j].GoalPaths
		}
		if out[i].NextOptions != out[j].NextOptions {
			return out[i].NextOptions > out[j].NextOptions
		}
		return out[i].Selection.Len() < out[j].Selection.Len()
	})
	return out, stopped, nil
}

// CompareSelectionsStream is the streaming what-if engine behind
// CompareSelectionsCtx: each candidate selection is delivered to fn as
// soon as its count completes, in enumeration order (not impact order —
// sort client-side, or use CompareSelectionsCtx for the sorted slice).
// Every delivered impact carries exact tallies; a cancelled or
// over-budget run delivers the candidates scored before the stop and
// returns the stop reason. fn returning ErrStopEmit ends the run cleanly
// with stopped == StopSink; any other error aborts the run and is
// returned.
//
// Unless Options.Substrate forces the tree walk, candidates are scored
// on one DAG counting kernel (see whatIfDAG): subtrees common to several
// candidates are counted once. SubstrateTree counts each candidate with
// the plain tree walk instead — the independent oracle the kernel is
// tested against.
func CompareSelectionsStream(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, fn func(SelectionImpact) error) (string, error) {
	if goal == nil {
		return "", fmt.Errorf("explore: CompareSelections requires a goal")
	}
	if fn == nil {
		return "", fmt.Errorf("explore: CompareSelectionsStream requires a callback")
	}
	if err := validate(cat, start, end, opt); err != nil {
		return "", err
	}
	if opt.Substrate != SubstrateTree {
		return whatIfDAG(ctx, cat, start, end, goal, pruners, opt, fn)
	}
	e := newEngine(cat, end, goal, pruners, opt)
	ctl := newControl(ctx, opt.Budget)
	stopped := ""
	err := e.selections(start, 0, func(w bitset.Set) error {
		if r := ctl.haltReason(); r != "" {
			stopped = r
			return errStopRun
		}
		child := start.Advance(cat, w)
		impact := SelectionImpact{Selection: w, NextOptions: child.Options.Len()}
		if !child.Term.Before(end) {
			// The child sits at the end semester: it is itself the path
			// endpoint, a goal path iff the goal is now satisfied.
			if goal.Satisfied(child.Completed) {
				impact.GoalPaths, impact.Paths = 1, 1
			} else {
				impact.Paths = 1
			}
		} else {
			res, err := GoalCountCtx(ctx, cat, child, end, goal, pruners, opt)
			if err != nil {
				return err
			}
			if res.Stopped != "" {
				stopped = res.Stopped
				return errStopRun
			}
			impact.GoalPaths, impact.Paths = res.GoalPaths, res.Paths
		}
		return fn(impact)
	})
	switch {
	case errors.Is(err, errStopRun):
		err = nil
	case errors.Is(err, ErrStopEmit):
		err = nil
		stopped = StopSink
	}
	return stopped, err
}

// whatIfDAG scores every candidate selection on one counting kernel:
// each candidate's resulting status is counted as a kernel root, so
// statuses reachable from several candidates are classified and expanded
// once, not once per candidate. Candidates landing at the end semester
// are their own path endpoint and are scored inline, exactly as the tree
// path does. Each candidate is delivered as soon as its count completes,
// in enumeration order; the run stops at the first candidate whose count
// is interrupted (one control and budget span all candidates), so a
// stopped run delivers exactly the candidates scored before the stop.
func whatIfDAG(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, fn func(SelectionImpact) error) (string, error) {
	e := newEngine(cat, end, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	type candidate struct {
		impact SelectionImpact
		child  status.Status
		inline bool // end-semester child, scored without the kernel
	}
	// Candidates are enumerated before any count runs: the kernel installs
	// the engine's selection scratch (engine.selScratch), and the candidate
	// sets collected here must be retained, not reused.
	var cands []candidate
	err := e.selections(start, 0, func(w bitset.Set) error {
		if e.ctl.haltReason() != "" {
			return errStopRun
		}
		child := e.advance(start, w)
		c := candidate{impact: SelectionImpact{Selection: w, NextOptions: child.Options.Len()}, child: child}
		if !child.Term.Before(end) {
			// The child sits at the end semester: it is itself the path
			// endpoint, a goal path iff the goal is now satisfied.
			c.inline, c.impact.Paths = true, 1
			if e.goal.Satisfied(child.Completed) {
				c.impact.GoalPaths = 1
			}
		}
		cands = append(cands, c)
		return nil
	})
	if err != nil && !errors.Is(err, errStopRun) {
		return "", err
	}
	k := newCountKernel(e, end, 0)
	for _, c := range cands {
		if r := e.ctl.haltReason(); r != "" {
			return r, nil
		}
		if !c.inline {
			vec, ok := k.root(c.child)
			if !ok {
				return e.ctl.reason(), nil
			}
			c.impact.Paths, c.impact.GoalPaths = vec[0], vec[1]
		}
		if err := fn(c.impact); err != nil {
			if errors.Is(err, ErrStopEmit) {
				return StopSink, nil
			}
			return "", err
		}
	}
	return "", nil
}
