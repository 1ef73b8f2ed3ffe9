package explore

import (
	"context"
	"testing"
	"time"

	"repro/internal/brandeis"
	"repro/internal/rank"
)

// cancelCase returns a random scenario with a window large enough that
// an uncancelled run takes meaningfully long.
func cancelCase(t *testing.T) randomCase {
	t.Helper()
	rc := newRandomCase(t, 3)
	rc.end = rc.start.Add(7) // widen the horizon to make runs non-trivial
	return rc
}

// TestAlreadyCancelledContext: the acceptance criterion — a goal-driven
// explore launched with an already-cancelled context returns promptly
// with Stopped="canceled" and a well-formed empty-ish Result.
func TestAlreadyCancelledContext(t *testing.T) {
	rc := cancelCase(t)
	pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for name, run := range map[string]func() (string, bool, error){
		"goal": func() (string, bool, error) {
			res, err := GoalCtx(ctx, rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
			return res.Stopped, res.Truncated, err
		},
		"goal-count": func() (string, bool, error) {
			res, err := GoalCountCtx(ctx, rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
			return res.Stopped, res.Truncated, err
		},
		"deadline-count": func() (string, bool, error) {
			res, err := DeadlineCountCtx(ctx, rc.cat, rc.startStatus(), rc.end, rc.opt)
			return res.Stopped, res.Truncated, err
		},
		"ranked": func() (string, bool, error) {
			res, err := RankedCtx(ctx, rc.cat, rc.startStatus(), rc.end, rc.req,
				rank.Time{}, 5, pruners, rc.opt)
			return res.Stopped, res.Truncated, err
		},
	} {
		began := time.Now()
		stopped, truncated, err := run()
		elapsed := time.Since(began)
		if err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
		if stopped != StopCanceled || !truncated {
			t.Errorf("%s: Stopped=%q Truncated=%v, want %q/true", name, stopped, truncated, StopCanceled)
		}
		if elapsed > 10*time.Millisecond {
			t.Errorf("%s: cancelled run took %v, want <10ms", name, elapsed)
		}
	}
}

// TestOneNodeBudget: a 1-node budget returns a well-formed truncated
// Result with zero phantom paths.
func TestOneNodeBudget(t *testing.T) {
	rc := cancelCase(t)
	pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
	opt := rc.opt
	opt.Budget = Budget{MaxNodes: 1}

	full, err := Goal(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
	if err != nil {
		t.Fatal(err)
	}

	res, err := GoalCtx(context.Background(), rc.cat, rc.startStatus(), rc.end, rc.req, pruners, opt)
	if err != nil {
		t.Fatalf("budgeted run errored: %v", err)
	}
	if res.Stopped != StopMaxNodes || !res.Truncated {
		t.Fatalf("Stopped=%q Truncated=%v, want %q/true", res.Stopped, res.Truncated, StopMaxNodes)
	}
	if res.Graph == nil {
		t.Fatal("budgeted materialising run returned no graph")
	}
	// Only the root was charged before the stop: the partial graph is the
	// root plus its immediate children at most, and every tallied path
	// must be a real path of the complete run.
	if res.Paths > full.Paths || res.GoalPaths > full.GoalPaths {
		t.Errorf("truncated tallies exceed the complete run: %+v vs %+v", res, full)
	}
	if g := res.Graph; g.NumNodes() < 1 {
		t.Errorf("graph has %d nodes", g.NumNodes())
	}

	cnt, err := GoalCountCtx(context.Background(), rc.cat, rc.startStatus(), rc.end, rc.req, pruners, opt)
	if err != nil {
		t.Fatalf("budgeted count errored: %v", err)
	}
	if cnt.Stopped != StopMaxNodes {
		t.Errorf("count Stopped=%q, want %q", cnt.Stopped, StopMaxNodes)
	}
	if cnt.Paths > full.Paths {
		t.Errorf("truncated count %d exceeds complete %d", cnt.Paths, full.Paths)
	}
}

// TestBudgetTimeout: a tiny wall-clock budget stops a large run promptly
// with Stopped="deadline"; the same budget via context deadline agrees.
func TestBudgetTimeout(t *testing.T) {
	// A Table-2-scale window over the embedded evaluation catalog: far too
	// many paths to enumerate within the budget, so the clock must fire.
	cat := brandeis.Catalog()
	start := emptyStart(cat, cat.FirstTerm())
	end := cat.FirstTerm().Add(8)
	opt := Options{MaxPerTerm: 3, Budget: Budget{Timeout: time.Millisecond}}
	began := time.Now()
	res, err := DeadlineCountCtx(context.Background(), cat, start, end, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopDeadline {
		t.Fatalf("Stopped=%q, want %q (run took %v)", res.Stopped, StopDeadline, time.Since(began))
	}
	if elapsed := time.Since(began); elapsed > 500*time.Millisecond {
		t.Errorf("timeout budget took %v to fire", elapsed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err = DeadlineCountCtx(ctx, cat, start, end, Options{MaxPerTerm: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopDeadline {
		t.Errorf("context deadline: Stopped=%q, want %q", res.Stopped, StopDeadline)
	}
}

// TestMaxPathsBudget: the path budget ends counting runs near the
// requested tally.
func TestMaxPathsBudget(t *testing.T) {
	rc := cancelCase(t)
	opt := rc.opt
	opt.Budget = Budget{MaxPaths: 10}
	res, err := DeadlineCountCtx(context.Background(), rc.cat, rc.startStatus(), rc.end, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopMaxPaths {
		t.Fatalf("Stopped=%q, want %q", res.Stopped, StopMaxPaths)
	}
	if res.Paths < 10 {
		t.Errorf("stopped with only %d paths tallied, budget was 10", res.Paths)
	}
}

// TestBudgetsDisabledEquivalence: with a zero Budget and a background
// context the *Ctx variants are byte-identical to the legacy entry points
// (counting equivalence between the tree walk and the DAG kernel is
// separately covered by dag_test.go).
func TestBudgetsDisabledEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		legacy, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := GoalCountCtx(context.Background(), rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if legacy.Paths != ctxed.Paths || legacy.GoalPaths != ctxed.GoalPaths ||
			legacy.Nodes != ctxed.Nodes || ctxed.Stopped != "" || ctxed.Truncated {
			t.Fatalf("seed %d: ctx variant diverged: legacy %+v vs ctx %+v", seed, legacy, ctxed)
		}

		// A merged count (the DAG kernel) under a cancellable-but-never-
		// cancelled context still agrees exactly (the control must not
		// perturb counting).
		ctx, cancel := context.WithCancel(context.Background())
		mopt := rc.opt
		mopt.MergeStatuses = true
		merged, err := GoalCountCtx(ctx, rc.cat, rc.startStatus(), rc.end, rc.req, pruners, mopt)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if merged.Paths != legacy.Paths || merged.GoalPaths != legacy.GoalPaths {
			t.Fatalf("seed %d: merged ctx run diverged: %+v vs %+v", seed, merged, legacy)
		}
	}
}

// TestMidRunCancelDoesNotPoisonMemo: a merged counting run runs on the
// DAG kernel, whose memo never interns the partial sums of frames a stop
// unwinds — so a run stopped mid-flight by its node budget reports
// tallies that never exceed the full run's.
func TestMidRunCancelDoesNotPoisonMemo(t *testing.T) {
	rc := cancelCase(t)
	opt := rc.opt
	opt.MergeStatuses = true
	full, err := DeadlineCount(rc.cat, rc.startStatus(), rc.end, opt)
	if err != nil {
		t.Fatal(err)
	}
	bopt := opt
	bopt.Budget = Budget{MaxNodes: full.Nodes / 2}
	partial, err := DeadlineCountCtx(context.Background(), rc.cat, rc.startStatus(), rc.end, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Stopped != StopMaxNodes {
		t.Fatalf("Stopped=%q, want %q", partial.Stopped, StopMaxNodes)
	}
	if partial.Paths > full.Paths || partial.GoalPaths > full.GoalPaths {
		t.Errorf("partial tallies exceed full run: %+v vs %+v", partial, full)
	}
}
