package coursenav

import (
	"context"
	"errors"
	"sort"
	"testing"
)

// pathStrings renders and sorts path labels for multiset comparison.
func pathStrings(paths []Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.String()
	}
	sort.Strings(out)
	return out
}

// TestGoalStreamMatchesMaterialized: through the public façade, the
// streamed path multiset and tallies are identical to the materialised
// Collect run of the same goal query.
func TestGoalStreamMatchesMaterialized(t *testing.T) {
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}

	var streamed []Path
	var goalFlagged int64
	sum, err := nav.Stream(context.Background(), q, func(p StreamedPath) error {
		streamed = append(streamed, p.Path)
		if p.Goal {
			goalFlagged++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	g, matSum, err := nav.Collect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths != matSum.Paths || sum.GoalPaths != matSum.GoalPaths ||
		sum.Nodes != matSum.Nodes || sum.Edges != matSum.Edges {
		t.Errorf("summaries diverge: streamed %+v, materialised %+v", sum, matSum)
	}
	if goalFlagged != sum.GoalPaths {
		t.Errorf("goal-flagged deliveries = %d, summary.GoalPaths = %d", goalFlagged, sum.GoalPaths)
	}
	want := pathStrings(g.Paths(false, 0))
	got := pathStrings(streamed)
	if len(got) != len(want) {
		t.Fatalf("streamed %d paths, materialised graph has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path multiset diverges at %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("window produced no paths; parity check was vacuous")
	}
}

// TestDeadlineStreamMatchesMaterialized is the goal-free analogue: a
// deadline query's Stream against its Collect.
func TestDeadlineStreamMatchesMaterialized(t *testing.T) {
	nav, _ := Brandeis()
	q := Query{Start: "Spring 2015", End: "Fall 2015", MaxPerTerm: 2}
	var streamed []Path
	sum, err := nav.Stream(context.Background(), q, func(p StreamedPath) error {
		if p.Goal {
			t.Error("deadline stream delivered a goal-flagged path")
		}
		streamed = append(streamed, p.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g, matSum, err := nav.Collect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths != matSum.Paths || int64(len(streamed)) != sum.Paths {
		t.Errorf("delivered %d, streamed summary %d, materialised %d", len(streamed), sum.Paths, matSum.Paths)
	}
	want := pathStrings(g.Paths(false, 0))
	got := pathStrings(streamed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path multiset diverges at %d", i)
		}
	}
}

// TestStreamStopEarly: ErrStopStream ends the run cleanly with
// Stopped == "sink" and exactly the delivered prefix counted.
func TestStreamStopEarly(t *testing.T) {
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}
	var n int64
	sum, err := nav.Stream(context.Background(), q, func(StreamedPath) error {
		n++
		if n == 5 {
			return ErrStopStream
		}
		return nil
	})
	if err != nil {
		t.Fatalf("clean stop returned error: %v", err)
	}
	if n != 5 {
		t.Errorf("delivered %d paths after stop at 5", n)
	}
	if sum.Stopped != "sink" || !sum.Truncated {
		t.Errorf("summary = {stopped:%q truncated:%v}, want {sink true}", sum.Stopped, sum.Truncated)
	}
	if sum.Paths != 5 {
		t.Errorf("summary.Paths = %d, want the delivered prefix 5", sum.Paths)
	}
}

// TestStreamArgumentErrors: the façade rejects stream misuse up front,
// before any engine work.
func TestStreamArgumentErrors(t *testing.T) {
	nav, major := Brandeis()
	ctx := context.Background()
	q := Query{Start: "Fall 2013", End: "Spring 2014", MaxPerTerm: 2}
	goalQ := q
	goalQ.Goal = major
	ranked := goalQ
	ranked.Ranking, ranked.K = "time", 1
	nop := func(StreamedPath) error { return nil }
	for name, q := range map[string]Query{"deadline": q, "goal": goalQ, "ranked": ranked} {
		if _, err := nav.Stream(ctx, q, nil); err == nil {
			t.Errorf("nil callback accepted by Stream on a %s query", name)
		}
	}
	if _, _, err := nav.StreamCollect(ctx, goalQ, nil); err == nil {
		t.Error("nil callback accepted by StreamCollect")
	}
	if _, err := nav.WhatIfStream(ctx, goalQ, nil); err == nil {
		t.Error("nil callback accepted by WhatIfStream")
	}
	merged := goalQ
	merged.MergeStatuses = true
	merged.Substrate = "tree"
	if _, err := nav.Stream(ctx, merged, nop); !errors.Is(err, ErrMergedStreamUnsupported) {
		t.Errorf("MergeStatuses on the tree substrate: err = %v, want ErrMergedStreamUnsupported", err)
	}
	badSub := q
	badSub.Substrate = "quantum"
	if _, err := nav.Stream(ctx, badSub, nop); err == nil {
		t.Error("unknown substrate accepted")
	}
	noGoal := ranked
	noGoal.Goal = Goal{}
	if sum, err := nav.Stream(ctx, noGoal, nop); err == nil || sum.Nodes != 0 {
		t.Errorf("ranked stream without a goal: err = %v, summary %+v", err, sum)
	}
	if g, sum, err := nav.StreamCollect(ctx, ranked, nop); err == nil || g != nil || sum.Nodes != 0 {
		t.Errorf("StreamCollect on a ranked query: err = %v, summary %+v", err, sum)
	}
	if _, err := nav.WhatIfStream(ctx, ranked, func(SelectionImpact) error { return nil }); err == nil {
		t.Error("WhatIfStream accepted a ranked query")
	}
	horizon := goalQ
	horizon.Horizon = 1
	if _, err := nav.Stream(ctx, horizon, nop); err == nil {
		t.Error("Stream accepted a Horizon")
	}
}

// TestGoalPathSeq: the range-over-func adapter (Seq) over a goal query
// yields the same paths as the callback stream, and breaking the loop stops the engine cleanly.
func TestGoalPathSeq(t *testing.T) {
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}

	var viaCallback []string
	if _, err := nav.Stream(context.Background(), q, func(p StreamedPath) error {
		viaCallback = append(viaCallback, p.Path.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var viaSeq []string
	for p, err := range nav.Seq(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		viaSeq = append(viaSeq, p.Path.String())
	}
	if len(viaSeq) != len(viaCallback) {
		t.Fatalf("seq yielded %d paths, callback %d", len(viaSeq), len(viaCallback))
	}
	for i := range viaSeq {
		if viaSeq[i] != viaCallback[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}

	// Early break: exactly the prefix is observed, no error is yielded.
	seen := 0
	for _, err := range nav.Seq(context.Background(), q) {
		if err != nil {
			t.Fatalf("break path yielded error: %v", err)
		}
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Errorf("broke at 3, saw %d", seen)
	}

	// A run error surfaces as the final yielded pair.
	var errs []error
	for _, err := range nav.Seq(context.Background(), Query{Start: "nope", Goal: major}) {
		errs = append(errs, err)
	}
	if len(errs) != 1 || errs[0] == nil {
		t.Errorf("bad query yielded %v, want exactly one error", errs)
	}
}

// TestTopKPathSeq: rank order via the iterator over a ranked query
// matches Ranked.
func TestTopKPathSeq(t *testing.T) {
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major, Ranking: "time", K: 3}
	paths, _, err := nav.Ranked(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for p, err := range nav.Seq(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(paths) {
			t.Fatalf("seq yielded more than the %d materialised paths", len(paths))
		}
		if p.Path.String() != paths[i].String() || p.Cost != paths[i].Cost {
			t.Errorf("path %d diverges from Ranked", i)
		}
		if !p.Goal {
			t.Errorf("ranked path %d not goal-flagged", i)
		}
		i++
	}
	if i != len(paths) {
		t.Errorf("seq yielded %d paths, Ranked returned %d", i, len(paths))
	}
}

// TestWhatIfStreamFacade: streamed selection impacts carry the same
// tallies as the sorted WhatIf result.
func TestWhatIfStreamFacade(t *testing.T) {
	nav, major := Brandeis()
	q := Query{
		Completed: []string{"COSI 11A", "COSI 29A"},
		Start:     "Spring 2014", End: "Spring 2015", MaxPerTerm: 2,
		Goal: major,
	}
	tally := func(im SelectionImpact) string {
		s := ""
		for _, c := range im.Courses {
			s += c + ","
		}
		return s
	}
	streamed := map[string]SelectionImpact{}
	stopped, err := nav.WhatIfStream(context.Background(), q, func(im SelectionImpact) error {
		streamed[tally(im)] = im
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stopped != "" {
		t.Errorf("stopped = %q for a complete run", stopped)
	}
	impacts, _, err := nav.WhatIf(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) != len(streamed) {
		t.Fatalf("streamed %d selections, materialised %d", len(streamed), len(impacts))
	}
	for _, want := range impacts {
		got, ok := streamed[tally(want)]
		if !ok {
			t.Errorf("selection %v missing from stream", want.Courses)
			continue
		}
		if got.GoalPaths != want.GoalPaths || got.Paths != want.Paths || got.NextOptions != want.NextOptions {
			t.Errorf("selection %v: streamed %+v, want %+v", want.Courses, got, want)
		}
	}
}

// TestStreamCancellation: cancelling the context mid-stream stops the
// run with Stopped == "canceled" and no error, and no further paths are
// delivered after the cancel is observed.
func TestStreamCancellation(t *testing.T) {
	nav, major := Brandeis()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n, late int64
	canceled := false
	sum, err := nav.Stream(ctx, Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major},
		func(StreamedPath) error {
			if canceled {
				late++
			}
			n++
			if n == 3 {
				cancel()
				canceled = true
			}
			return nil
		})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if late != 0 {
		t.Errorf("%d paths delivered after cancellation", late)
	}
	if sum.Stopped != "canceled" || !sum.Truncated {
		t.Errorf("summary = {stopped:%q truncated:%v}, want {canceled true}", sum.Stopped, sum.Truncated)
	}
}

// TestStreamMergedDAG: streaming accepts MergeStatuses by lazily
// unfolding the interned-status DAG — every path is still delivered, in
// the same order as the unmerged serial tree stream — while the collected
// variants keep rejecting it with the typed sentinel.
func TestStreamMergedDAG(t *testing.T) {
	nav, major := Brandeis()
	ctx := context.Background()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}

	var plain []string
	if _, err := nav.Stream(ctx, q, func(p StreamedPath) error {
		plain = append(plain, p.Path.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	merged := q
	merged.MergeStatuses = true
	var unfolded []string
	sum, err := nav.Stream(ctx, merged, func(p StreamedPath) error {
		unfolded = append(unfolded, p.Path.String())
		return nil
	})
	if err != nil {
		t.Fatalf("merged stream: %v", err)
	}
	if !sum.DAG {
		t.Error("merged stream did not report Summary.DAG")
	}
	if len(unfolded) != len(plain) {
		t.Fatalf("merged stream delivered %d paths, tree stream %d", len(unfolded), len(plain))
	}
	for i := range plain {
		if unfolded[i] != plain[i] {
			t.Fatalf("path %d differs: dag %q, tree %q", i, unfolded[i], plain[i])
		}
	}

	// Forcing the DAG without MergeStatuses unfolds too.
	forced := q
	forced.Substrate, forced.Goal = "dag", Goal{}
	var n int
	if _, err := nav.Stream(ctx, forced, func(StreamedPath) error { n++; return nil }); err != nil {
		t.Fatalf("forced dag stream: %v", err)
	}
	if n == 0 {
		t.Error("forced dag stream delivered nothing")
	}

	// Collected streams need per-path node identity: typed rejection.
	nop := func(StreamedPath) error { return nil }
	mergedDeadline := merged
	mergedDeadline.Goal = Goal{}
	for _, q := range []Query{merged, mergedDeadline} {
		if _, _, err := nav.StreamCollect(ctx, q, nop); !errors.Is(err, ErrMergedStreamUnsupported) {
			t.Errorf("StreamCollect merged (goal %s): err = %v, want ErrMergedStreamUnsupported", q.Goal, err)
		}
	}
}
