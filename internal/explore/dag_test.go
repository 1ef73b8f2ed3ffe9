package explore

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
)

// dagOpt returns opt switched onto the DAG substrate.
func dagOpt(opt Options) Options {
	opt.Substrate = SubstrateDAG
	return opt
}

// TestDAGDeadlineCountMatchesTree pins the substrate equivalence on the
// paper's running example: identical path counts, strictly no more
// generated statuses.
func TestDAGDeadlineCountMatchesTree(t *testing.T) {
	cat := fig3Catalog(t)
	opt := Options{MaxPerTerm: 3}
	tree, err := DeadlineCount(cat, emptyStart(cat, f11), s13, opt)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := DeadlineCount(cat, emptyStart(cat, f11), s13, dagOpt(opt))
	if err != nil {
		t.Fatal(err)
	}
	if dag.Paths != tree.Paths || dag.GoalPaths != tree.GoalPaths {
		t.Fatalf("dag %d/%d != tree %d/%d", dag.Paths, dag.GoalPaths, tree.Paths, tree.GoalPaths)
	}
	if !dag.DAG || tree.DAG {
		t.Fatalf("DAG flags: dag=%v tree=%v", dag.DAG, tree.DAG)
	}
	if dag.Nodes > tree.Nodes {
		t.Fatalf("dag generated %d distinct statuses > tree's %d visits", dag.Nodes, tree.Nodes)
	}
}

// TestDAGGoalCountBrandeis checks the goal-driven DP (pruners active and
// inactive) against the tree walk on the real evaluation catalog.
func TestDAGGoalCountBrandeis(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, f11.Add(4)) // Fall 2013
	end := f11.Add(8)                    // Fall 2015
	opt := Options{MaxPerTerm: 3}
	for _, pruned := range []bool{true, false} {
		var pruners []Pruner
		if pruned {
			pruners = PaperPruners(cat, goal, opt.MaxPerTerm)
		}
		tree, err := GoalCount(cat, start, end, goal, pruners, opt)
		if err != nil {
			t.Fatal(err)
		}
		dag, err := GoalCount(cat, start, end, goal, pruners, dagOpt(opt))
		if err != nil {
			t.Fatal(err)
		}
		if dag.Paths != tree.Paths || dag.GoalPaths != tree.GoalPaths {
			t.Errorf("pruned=%v: dag %d/%d != tree %d/%d",
				pruned, dag.Paths, dag.GoalPaths, tree.Paths, tree.GoalPaths)
		}
	}
}

// TestTreeDAGEquivalenceRandom is the substrate-equivalence property
// suite: on randomized catalogs and queries, the DAG engine's deadline
// counts and goal counts (with and without the paper pruners) are
// bit-identical to the plain tree walk's.
func TestTreeDAGEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)

		treeD, err := DeadlineCount(rc.cat, rc.startStatus(), rc.end, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		treeG, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		treeN, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt)
		if err != nil {
			t.Fatal(err)
		}

		opt := dagOpt(rc.opt)
		dagD, err := DeadlineCount(rc.cat, rc.startStatus(), rc.end, opt)
		if err != nil {
			t.Fatal(err)
		}
		if dagD.Paths != treeD.Paths || dagD.GoalPaths != treeD.GoalPaths {
			t.Fatalf("seed %d: deadline dag %d/%d != tree %d/%d",
				seed, dagD.Paths, dagD.GoalPaths, treeD.Paths, treeD.GoalPaths)
		}
		dagG, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, opt)
		if err != nil {
			t.Fatal(err)
		}
		if dagG.Paths != treeG.Paths || dagG.GoalPaths != treeG.GoalPaths {
			t.Fatalf("seed %d: goal dag %d/%d != tree %d/%d",
				seed, dagG.Paths, dagG.GoalPaths, treeG.Paths, treeG.GoalPaths)
		}
		dagN, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if dagN.Paths != treeN.Paths || dagN.GoalPaths != treeN.GoalPaths {
			t.Fatalf("seed %d: unpruned dag %d/%d != tree %d/%d",
				seed, dagN.Paths, dagN.GoalPaths, treeN.Paths, treeN.GoalPaths)
		}
	}
}

// TestCountingModesAgreeOnRandomCatalogs: on every randomised scenario,
// the merged (MergeStatuses) goal count — which resolves to the DAG
// counting kernel — reports the plain tree walk's path and goal-path
// totals and says it ran on the DAG.
func TestCountingModesAgreeOnRandomCatalogs(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		serial, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		mopt := rc.opt
		mopt.MergeStatuses = true
		merged, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, mopt)
		if err != nil {
			t.Fatal(err)
		}
		if serial.DAG || !merged.DAG {
			t.Fatalf("seed %d: DAG flags serial=%v merged=%v, want false/true", seed, serial.DAG, merged.DAG)
		}
		if merged.Paths != serial.Paths || merged.GoalPaths != serial.GoalPaths {
			t.Fatalf("seed %d: merged %d/%d != serial %d/%d",
				seed, merged.Paths, merged.GoalPaths, serial.Paths, serial.GoalPaths)
		}
	}
}

// TestTreeDAGWhatIfEquivalence: the shared-DAG what-if engine delivers
// exactly the per-candidate deltas the plain per-candidate tree walks do,
// on randomized catalogs.
func TestTreeDAGWhatIfEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		topt := rc.opt
		topt.Substrate = SubstrateTree
		tree, stopped, err := CompareSelectionsCtx(context.Background(),
			rc.cat, rc.startStatus(), rc.end, rc.req, pruners, topt)
		if err != nil || stopped != "" {
			t.Fatalf("seed %d: tree what-if err=%v stopped=%q", seed, err, stopped)
		}
		dag, stopped, err := CompareSelectionsCtx(context.Background(),
			rc.cat, rc.startStatus(), rc.end, rc.req, pruners, dagOpt(rc.opt))
		if err != nil || stopped != "" {
			t.Fatalf("seed %d: dag what-if err=%v stopped=%q", seed, err, stopped)
		}
		if len(dag) != len(tree) {
			t.Fatalf("seed %d: %d candidates != tree's %d", seed, len(dag), len(tree))
		}
		for i := range tree {
			a, b := tree[i], dag[i]
			if !a.Selection.Equal(b.Selection) || a.Paths != b.Paths ||
				a.GoalPaths != b.GoalPaths || a.NextOptions != b.NextOptions {
				t.Fatalf("seed %d: impact %d differs: tree %+v dag %+v", seed, i, a, b)
			}
		}
	}
}

// TestDAGStreamUnfold: a DAG-substrate stream lazily unfolds the merged
// DAG back into full paths, in exactly the serial tree walk's depth-first
// emission order.
func TestDAGStreamUnfold(t *testing.T) {
	cat := fig3Catalog(t)
	opt := Options{MaxPerTerm: 3}
	paths := func(opt Options) []string {
		var out []string
		sink := SinkFunc(func(ev Event) error {
			if ev.Kind != KindPath {
				return nil
			}
			parts := make([]string, len(ev.Steps))
			for i, s := range ev.Steps {
				parts[i] = "{" + strings.Join(cat.IDs(s.Selection), ",") + "}"
			}
			out = append(out, strings.Join(parts, "/"))
			return nil
		})
		res, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, opt, sink)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Paths) != len(out) {
			t.Fatalf("Result.Paths = %d, emitted %d", res.Paths, len(out))
		}
		return out
	}
	tree := paths(opt)
	dag := paths(dagOpt(opt))
	if len(tree) == 0 || len(tree) != len(dag) {
		t.Fatalf("tree emitted %d paths, dag %d", len(tree), len(dag))
	}
	for i := range tree {
		if tree[i] != dag[i] {
			t.Fatalf("path %d: tree %q != dag %q", i, tree[i], dag[i])
		}
	}
	// Early stop: the unfold honours ErrStopEmit and reports StopSink with
	// exactly the delivered prefix.
	var got int64
	res, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, dagOpt(opt),
		SinkFunc(func(ev Event) error {
			if ev.Kind != KindPath {
				return nil
			}
			if got++; got == 2 {
				return ErrStopEmit
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopSink || res.Paths != 2 {
		t.Fatalf("stopped=%q paths=%d, want sink/2", res.Stopped, res.Paths)
	}
}

// TestDAGBudgets: budget bounds and cancellation end a DAG run with the
// tree walk's partial-result contract (lower-bound tallies, reason named).
func TestDAGBudgets(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, f11.Add(4))
	end := f11.Add(8)
	opt := dagOpt(Options{MaxPerTerm: 3})
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)

	full, err := GoalCount(cat, start, end, goal, pruners, opt)
	if err != nil || full.Stopped != "" {
		t.Fatalf("unbudgeted run: err=%v stopped=%q", err, full.Stopped)
	}

	bopt := opt
	bopt.Budget = Budget{MaxNodes: 25}
	partial, err := GoalCount(cat, start, end, goal, pruners, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Stopped != StopMaxNodes || !partial.Truncated {
		t.Fatalf("stopped = %q (truncated=%v), want max-nodes", partial.Stopped, partial.Truncated)
	}
	if partial.Nodes > 25 {
		t.Fatalf("generated %d statuses under a 25-node budget", partial.Nodes)
	}
	if partial.Paths > full.Paths || partial.GoalPaths > full.GoalPaths {
		t.Fatalf("stopped tallies %d/%d exceed full %d/%d",
			partial.Paths, partial.GoalPaths, full.Paths, full.GoalPaths)
	}

	popt := opt
	popt.Budget = Budget{MaxPaths: 3}
	capped, err := DeadlineCount(cat, start, end, popt)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stopped != StopMaxPaths {
		t.Fatalf("path-budget stop = %q, want max-paths", capped.Stopped)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, err := GoalCountCtx(ctx, cat, start, end, goal, pruners, opt)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Stopped != StopCanceled || canceled.Paths != 0 {
		t.Fatalf("pre-canceled run: stopped=%q paths=%d", canceled.Stopped, canceled.Paths)
	}
}

// TestDAGMaterializeRejected: the DAG substrate cannot materialise.
func TestDAGMaterializeRejected(t *testing.T) {
	cat := fig3Catalog(t)
	if _, err := Deadline(cat, emptyStart(cat, f11), s13, dagOpt(Options{})); !errors.Is(err, ErrSubstrateDAGMaterialize) {
		t.Fatalf("materialising DAG run: err = %v, want ErrSubstrateDAGMaterialize", err)
	}
	goal, err := degree.NewCourseSet(cat, "11A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Goal(cat, emptyStart(cat, f11), s13, goal, nil, dagOpt(Options{})); !errors.Is(err, ErrSubstrateDAGMaterialize) {
		t.Fatalf("materialising DAG goal run: err = %v", err)
	}
}

// TestSubstrateOption: validation and names.
func TestSubstrateOption(t *testing.T) {
	cat := fig3Catalog(t)
	if _, err := DeadlineCount(cat, emptyStart(cat, f11), s13, Options{Substrate: Substrate(9)}); err == nil {
		t.Error("unknown substrate accepted")
	}
	for sub, want := range map[Substrate]string{
		SubstrateAuto: "auto", SubstrateTree: "tree", SubstrateDAG: "dag", Substrate(9): "Substrate(9)",
	} {
		if got := sub.String(); got != want {
			t.Errorf("Substrate(%d).String() = %q, want %q", sub, got, want)
		}
	}
	// SubstrateTree is explicitly the legacy walk.
	tree, err := DeadlineCount(cat, emptyStart(cat, f11), s13, Options{Substrate: SubstrateTree})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := DeadlineCount(cat, emptyStart(cat, f11), s13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes != auto.Nodes || tree.Paths != auto.Paths || tree.DAG || auto.DAG {
		t.Fatalf("SubstrateTree %+v != SubstrateAuto %+v", tree, auto)
	}
}

// mustGoalSet is a tiny helper for goal construction in DAG tests.
func mustGoalSet(t *testing.T, cat *catalog.Catalog, ids ...string) degree.Goal {
	t.Helper()
	g, err := degree.NewCourseSet(cat, ids...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDAGWhatIfEndAdjacent: candidates landing on the end semester are
// scored inline on the DAG path too.
func TestDAGWhatIfEndAdjacent(t *testing.T) {
	cat := fig3Catalog(t)
	impacts, err := CompareSelections(cat, emptyStart(cat, f12), s13,
		mustGoalSet(t, cat, "11A"), nil, dagOpt(Options{MaxPerTerm: 1}))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, imp := range impacts {
		if imp.Selection.Equal(cat.MustSetOf("11A")) {
			found = true
			if imp.GoalPaths != 1 || imp.Paths != 1 {
				t.Errorf("end-adjacent impact = %+v", imp)
			}
		}
	}
	if !found {
		t.Error("11A candidate missing")
	}
}

// TestDAGStructuralGolden pins the DAG substrate's served tallies — path
// counts and the structural Nodes/Edges/prune split — on fixed queries to
// values recorded from the forward-prefix builder the memoised kernel
// replaced, so served summaries stay byte-identical across counter
// rewrites. The kernel interns and classifies exactly the statuses that
// builder did: terminal children fold at the edge, every other distinct
// status is classified and expanded once, and a memo hit charges only
// the edge that reached it.
func TestDAGStructuralGolden(t *testing.T) {
	type tallies struct {
		Paths, GoalPaths, Nodes, Edges, PrunedTime, PrunedAvail int64
	}
	of := func(r Result) tallies {
		if !r.DAG || r.Stopped != "" {
			t.Fatalf("result DAG=%v stopped=%q", r.DAG, r.Stopped)
		}
		return tallies{r.Paths, r.GoalPaths, r.Nodes, r.Edges, r.PrunedTime, r.PrunedAvail}
	}
	check := func(name string, got, want tallies) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}

	fig := fig3Catalog(t)
	fopt := dagOpt(Options{MaxPerTerm: 3})
	r, err := DeadlineCount(fig, emptyStart(fig, f11), s13, fopt)
	if err != nil {
		t.Fatal(err)
	}
	check("fig3 deadline", of(r), tallies{3, 0, 7, 8, 0, 0})
	fg := mustGoalSet(t, fig, "11A", "21A")
	r, err = GoalCount(fig, emptyStart(fig, f11), s13, fg, PaperPruners(fig, fg, 3), fopt)
	if err != nil {
		t.Fatal(err)
	}
	check("fig3 goal", of(r), tallies{2, 2, 5, 6, 0, 1})

	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := dagOpt(Options{MaxPerTerm: brandeis.MaxPerTerm})
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	startAt := func(d int) status.Status {
		return status.New(cat, brandeis.StartForSemesters(d), bitset.New(cat.Len()))
	}
	r, err = DeadlineCount(cat, startAt(4), brandeis.EndTerm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	check("brandeis deadline d=4", of(r), tallies{117030, 0, 910, 65539, 0, 0})
	r, err = GoalCount(cat, startAt(5), brandeis.EndTerm(), goal, pruners, opt)
	if err != nil {
		t.Fatal(err)
	}
	check("brandeis goal d=5", of(r), tallies{6716, 468, 120, 1808, 54, 35})
	mr, err := GoalCountMulti(cat, startAt(4), brandeis.EndTerm(), 4, goal, pruners, opt)
	if err != nil {
		t.Fatal(err)
	}
	check("brandeis horizon-4 probe", of(mr.Result), tallies{165047, 165047, 105553, 298243, 0, 101816})
	if want := []int64{117, 165047, 165047, 165047, 165047}; !slices.Equal(mr.GoalPathsAt, want) {
		t.Errorf("horizon-4 probe GoalPathsAt = %v, want %v", mr.GoalPathsAt, want)
	}
}

// TestDAGWhatIfBudgetPrefix: a budget-stopped DAG what-if delivers the
// candidates whose counts completed before the stop — a non-empty prefix
// of the enumeration order, each entry equal to the unbudgeted run's —
// and names the bound, the same contract as the tree path.
func TestDAGWhatIfBudgetPrefix(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := status.New(cat, brandeis.StartForSemesters(4), bitset.New(cat.Len()))
	opt := dagOpt(Options{MaxPerTerm: brandeis.MaxPerTerm})
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	collect := func(opt Options) ([]SelectionImpact, string) {
		var out []SelectionImpact
		stopped, err := CompareSelectionsStream(context.Background(), cat, start, brandeis.EndTerm(), goal, pruners, opt,
			func(im SelectionImpact) error {
				out = append(out, im)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out, stopped
	}
	full, stopped := collect(opt)
	if stopped != "" || len(full) < 2 {
		t.Fatalf("unbudgeted what-if: %d candidates, stopped=%q", len(full), stopped)
	}
	bopt := opt
	bopt.Budget = Budget{MaxNodes: 30}
	got, stopped := collect(bopt)
	if stopped != StopMaxNodes {
		t.Fatalf("budgeted what-if stopped = %q, want %q", stopped, StopMaxNodes)
	}
	if len(got) == 0 || len(got) >= len(full) {
		t.Fatalf("budgeted what-if delivered %d of %d candidates, want a non-empty proper prefix", len(got), len(full))
	}
	for i, im := range got {
		want := full[i]
		if !im.Selection.Equal(want.Selection) || im.Paths != want.Paths ||
			im.GoalPaths != want.GoalPaths || im.NextOptions != want.NextOptions {
			t.Fatalf("candidate %d: budgeted %+v != unbudgeted %+v", i, im, want)
		}
	}

	// The tree substrate shares one control across candidates too: the
	// path budget bounds the delivered candidates' summed tallies, not
	// each candidate's (Spring 2013 → Fall 2015 holds far more than 4,000
	// paths over its first few candidates).
	start = status.New(cat, brandeis.StartForSemesters(5), bitset.New(cat.Len()))
	topt := Options{MaxPerTerm: brandeis.MaxPerTerm, Substrate: SubstrateTree, Budget: Budget{MaxPaths: 4000}}
	got, stopped = collect(topt)
	var sum int64
	for _, im := range got {
		sum += im.Paths
	}
	if stopped != StopMaxPaths || sum > topt.Budget.MaxPaths {
		t.Fatalf("tree what-if under MaxPaths %d: %d candidates with %d summed paths, stopped=%q; want ≤ %d paths and %q",
			topt.Budget.MaxPaths, len(got), sum, stopped, topt.Budget.MaxPaths, StopMaxPaths)
	}
}
