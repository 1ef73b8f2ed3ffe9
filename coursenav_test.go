package coursenav

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestBrandeisBasics(t *testing.T) {
	nav, major := Brandeis()
	if nav.NumCourses() != 38 {
		t.Fatalf("NumCourses = %d", nav.NumCourses())
	}
	if !strings.Contains(major.String(), "core") {
		t.Errorf("major = %q", major)
	}
	unreachable, neverOffered := nav.Lint()
	if len(unreachable) != 0 || len(neverOffered) != 0 {
		t.Errorf("lint: %v %v", unreachable, neverOffered)
	}
	c, ok := nav.Course("COSI 21A")
	if !ok || c.Prereq != "COSI 11A" || c.Title == "" {
		t.Errorf("Course = %+v ok=%v", c, ok)
	}
	if _, ok := nav.Course("NOPE 1"); ok {
		t.Error("unknown course found")
	}
	if len(nav.Courses()) != 38 {
		t.Error("Courses length")
	}
}

func TestCatalogJSONRoundTrip(t *testing.T) {
	nav, _ := Brandeis()
	var buf bytes.Buffer
	if err := nav.WriteCatalogJSON(&buf); err != nil {
		t.Fatal(err)
	}
	nav2, err := NewFromJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nav2.NumCourses() != 38 {
		t.Errorf("round-trip NumCourses = %d", nav2.NumCourses())
	}
	if _, err := NewFromJSON(strings.NewReader("junk")); err == nil {
		t.Error("junk JSON accepted")
	}
}

func TestNewFromRegistrarDump(t *testing.T) {
	dump := `
course: COSI 11A
title: Programming
description: Intro. Usually offered every fall.
workload: 9

course: COSI 21A
title: Data Structures
description: Trees. Prerequisite: COSI 11a. Usually offered every spring.
workload: 12
`
	schedule := "COSI 21A | Spring 2013\n"
	nav, err := NewFromRegistrarDump(strings.NewReader(dump), strings.NewReader(schedule), "Fall 2012", "Fall 2014")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := nav.Course("COSI 21A")
	if len(c.Offered) != 1 || c.Offered[0] != "Spring 2013" {
		t.Errorf("schedule records not authoritative: %v", c.Offered)
	}
	// Without a schedule file, the phrase expansion applies.
	nav2, err := NewFromRegistrarDump(strings.NewReader(dump), nil, "Fall 2012", "Fall 2014")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := nav2.Course("COSI 21A")
	if len(c2.Offered) != 2 { // springs '13 and '14
		t.Errorf("phrase offerings = %v", c2.Offered)
	}
	// Error paths.
	if _, err := NewFromRegistrarDump(strings.NewReader(dump), nil, "Winter 2012", "Fall 2014"); err == nil {
		t.Error("bad first term accepted")
	}
	if _, err := NewFromRegistrarDump(strings.NewReader(dump), nil, "Fall 2012", "nope"); err == nil {
		t.Error("bad last term accepted")
	}
	if _, err := NewFromRegistrarDump(strings.NewReader("garbage: x"), nil, "Fall 2012", "Fall 2014"); err == nil {
		t.Error("garbage dump accepted")
	}
	if _, err := NewFromRegistrarDump(strings.NewReader(dump), strings.NewReader("NOPE|Fall 2013"), "Fall 2012", "Fall 2014"); err == nil {
		t.Error("bad schedule accepted")
	}
}

func TestGoalConstructors(t *testing.T) {
	nav, _ := Brandeis()
	if _, err := nav.GoalCourses("COSI 11A", "COSI 21A"); err != nil {
		t.Errorf("GoalCourses: %v", err)
	}
	if _, err := nav.GoalCourses("NOPE"); err == nil {
		t.Error("unknown course accepted")
	}
	if _, err := nav.GoalExpr("COSI 11A and COSI 12B"); err != nil {
		t.Errorf("GoalExpr: %v", err)
	}
	if _, err := nav.GoalExpr("((("); err == nil {
		t.Error("bad expr accepted")
	}
	if _, err := nav.GoalDegree(DegreeGroup{Name: "g", Count: 1, Courses: []string{"COSI 11A"}}); err != nil {
		t.Errorf("GoalDegree: %v", err)
	}
	if _, err := nav.GoalDegree(); err == nil {
		t.Error("empty degree accepted")
	}
	if (Goal{}).String() != "none" {
		t.Error("zero Goal String")
	}
}

func TestDeadlineEndToEnd(t *testing.T) {
	nav, _ := Brandeis()
	ctx := context.Background()
	q := Query{Start: "Spring 2014", End: "Fall 2015", MaxPerTerm: 2}
	g, sum, err := nav.Collect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths == 0 || sum.Nodes == 0 {
		t.Errorf("summary = %+v", sum)
	}
	st := g.Stats()
	if int64(st.Nodes) != sum.Nodes || st.Paths != sum.Paths {
		t.Errorf("graph stats %+v disagree with summary %+v", st, sum)
	}
	// Counting mode agrees.
	sum2, err := nav.Count(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Paths != sum.Paths {
		t.Errorf("count %d != materialise %d", sum2.Paths, sum.Paths)
	}
	// Renderers produce output.
	var dot, tree, js bytes.Buffer
	if err := g.WriteDOT(&dot); err != nil || !strings.Contains(dot.String(), "digraph") {
		t.Error("DOT rendering failed")
	}
	if err := g.WriteTree(&tree, 2); err != nil || tree.Len() == 0 {
		t.Error("tree rendering failed")
	}
	if err := g.WriteJSON(&js, 10); err != nil || !strings.Contains(js.String(), "\"nodes\"") {
		t.Error("JSON rendering failed")
	}
}

func TestQueryErrors(t *testing.T) {
	nav, major := Brandeis()
	ctx := context.Background()
	bad := []Query{
		{Start: "nope", End: "Fall 2015"},
		{Start: "Fall 2013", End: "nope"},
		{Start: "Fall 2013", End: "Fall 2015", Completed: []string{"NOPE"}},
		{Start: "Fall 2015", End: "Fall 2013"},
	}
	for i, q := range bad {
		if _, _, err := nav.Collect(ctx, q); err == nil {
			t.Errorf("bad query %d accepted by Collect", i)
		}
		q.Goal = major
		if _, err := nav.Count(ctx, q); err == nil {
			t.Errorf("bad query %d accepted by goal Count", i)
		}
	}

	// Invalid combinations of the algorithm-selecting fields, each
	// rejected by compile before any engine work (the Summary stays zero).
	goalQ := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}
	with := func(q Query, edit func(*Query)) Query { edit(&q); return q }
	ranked := with(goalQ, func(q *Query) { q.Ranking, q.K = "time", 3 })
	ops := map[string]func(Query) (Summary, error){
		"Count": func(q Query) (Summary, error) { return nav.Count(ctx, q) },
		"Collect": func(q Query) (Summary, error) {
			_, sum, err := nav.Collect(ctx, q)
			return sum, err
		},
		"Ranked": func(q Query) (Summary, error) {
			_, sum, err := nav.Ranked(ctx, q)
			return sum, err
		},
		"WhatIf": func(q Query) (Summary, error) {
			_, _, err := nav.WhatIf(ctx, q)
			return Summary{}, err
		},
		"NewSharedCounter": func(q Query) (Summary, error) {
			_, err := nav.NewSharedCounter(q, 0)
			return Summary{}, err
		},
	}
	combos := []struct {
		name, op string
		q        Query
	}{
		{"ranked without a goal", "Ranked", with(ranked, func(q *Query) { q.Goal = Goal{} })},
		{"Ranking and Weights both set", "Ranked", with(ranked, func(q *Query) { q.Weights = []Weight{{Ranking: "workload", Weight: 1}} })},
		{"negative K", "Ranked", with(ranked, func(q *Query) { q.K = -1 })},
		{"Ranking without K", "Ranked", with(ranked, func(q *Query) { q.K = 0 })},
		{"Ranked with K == 0", "Ranked", goalQ},
		{"Count on a ranked query", "Count", ranked},
		{"Collect on a ranked query", "Collect", ranked},
		{"WhatIf on a ranked query", "WhatIf", ranked},
		{"shared counter on a ranked query", "NewSharedCounter", ranked},
		{"WhatIf without a goal", "WhatIf", with(goalQ, func(q *Query) { q.Goal = Goal{} })},
		{"negative Horizon", "Count", with(goalQ, func(q *Query) { q.Horizon = -1 })},
		{"Horizon on Collect", "Collect", with(goalQ, func(q *Query) { q.Horizon = 2 })},
		{"Horizon without a goal", "Count", with(goalQ, func(q *Query) { q.Goal, q.Horizon = Goal{}, 2 })},
	}
	for _, c := range combos {
		sum, err := ops[c.op](c.q)
		if err == nil {
			t.Errorf("%s: accepted by %s", c.name, c.op)
		}
		if sum.Nodes != 0 || sum.Elapsed != 0 {
			t.Errorf("%s: engine ran before the error (%+v)", c.name, sum)
		}
	}
}

func TestGoalPathsWithCompletedCourses(t *testing.T) {
	nav, _ := Brandeis()
	// A student two semesters in, aiming to finish the core.
	goal, err := nav.GoalCourses("COSI 11A", "COSI 29A", "COSI 12B", "COSI 21A", "COSI 21B", "COSI 30A", "COSI 31A")
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Completed:  []string{"COSI 11A", "COSI 29A", "COSI 2A"},
		Start:      "Spring 2014",
		End:        "Fall 2015",
		MaxPerTerm: 3,
	}
	q.Goal = goal
	g, sum, err := nav.Collect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoalPaths == 0 {
		t.Fatal("no goal paths for a feasible core-completion query")
	}
	paths := g.Paths(true, 5)
	if len(paths) == 0 || len(paths) > 5 {
		t.Fatalf("Paths(limit 5) = %d", len(paths))
	}
	// Every reported path elects only core courses the student lacks.
	for _, p := range paths {
		if len(p.Semesters) == 0 {
			t.Error("empty path")
		}
		if !strings.Contains(p.String(), "{") {
			t.Errorf("String = %q", p.String())
		}
	}
	// Pruning accounting flows through.
	qNoPrune := q
	qNoPrune.NoPruning = true
	_, sum2, err := nav.Collect(context.Background(), qNoPrune)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.PrunedTime != 0 || sum2.PrunedAvail != 0 {
		t.Error("NoPruning still pruned")
	}
	if sum2.GoalPaths != sum.GoalPaths {
		t.Errorf("pruning changed goal paths: %d vs %d (Lemma 1 violation)", sum.GoalPaths, sum2.GoalPaths)
	}
	if sum2.Nodes <= sum.Nodes {
		t.Error("pruning did not reduce generated nodes")
	}
}

func TestTopKAllRankings(t *testing.T) {
	nav, major := Brandeis()
	if err := nav.UseSyntheticHistory(4, 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major, K: 5}
	for _, ranking := range Rankings() {
		q.Ranking = ranking
		paths, sum, err := nav.Ranked(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", ranking, err)
		}
		if len(paths) != 5 {
			t.Fatalf("%s: got %d paths", ranking, len(paths))
		}
		for i := 1; i < len(paths); i++ {
			if paths[i].Cost < paths[i-1].Cost {
				t.Errorf("%s: costs out of order", ranking)
			}
		}
		if sum.Nodes == 0 {
			t.Errorf("%s: no search effort recorded", ranking)
		}
		// Time ranking: the 4-semester window admits only 4-semester paths.
		if ranking == "time" && paths[0].Value != 4 {
			t.Errorf("time best = %g semesters, want 4", paths[0].Value)
		}
	}
	q.Ranking = "magic"
	if _, _, err := nav.Ranked(ctx, q); err == nil {
		t.Error("unknown ranking accepted")
	}
	q.Ranking, q.K = "time", 0
	if _, _, err := nav.Ranked(ctx, q); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestTopKReliabilityWithoutHistory(t *testing.T) {
	// Without UseSyntheticHistory the estimator defaults to the published
	// schedule (probability 1), so reliability still works and all paths
	// get value 1.
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major, Ranking: "reliability", K: 3}
	paths, _, err := nav.Ranked(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Value != 1 {
			t.Errorf("published-schedule reliability = %g, want 1", p.Value)
		}
	}
}

func TestFeasibleNow(t *testing.T) {
	nav, _ := Brandeis()
	opts, err := nav.FeasibleNow(nil, "Fall 2013")
	if err != nil {
		t.Fatal(err)
	}
	want := "COSI 11A,COSI 29A,COSI 2A"
	got := strings.Join(opts, ",")
	if got != "COSI 2A,COSI 11A,COSI 29A" {
		t.Errorf("FeasibleNow = %q (want the three intro courses, got ordering by catalog index); reference %q", got, want)
	}
	opts2, err := nav.FeasibleNow([]string{"COSI 11A"}, "Spring 2014")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(opts2, ",")
	for _, c := range []string{"COSI 12B", "COSI 21A"} {
		if !strings.Contains(joined, c) {
			t.Errorf("FeasibleNow after 11A missing %s: %v", c, opts2)
		}
	}
	if _, err := nav.FeasibleNow(nil, "nope"); err != nil {
		// expected
	} else {
		t.Error("bad term accepted")
	}
	if _, err := nav.FeasibleNow([]string{"NOPE"}, "Fall 2013"); err == nil {
		t.Error("unknown completed course accepted")
	}
}

func TestRankingsList(t *testing.T) {
	r := Rankings()
	if len(r) != 3 || r[0] != "time" {
		t.Errorf("Rankings = %v", r)
	}
}

func TestProjectBeyondRelease(t *testing.T) {
	nav, major := Brandeis()
	// Extend the schedule two semesters past Fall 2015.
	if err := nav.ProjectBeyondRelease("Fall 2016", 4, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	// Exploration may now cross the old release boundary.
	ctx := context.Background()
	q := Query{Start: "Spring 2014", End: "Fall 2016", MaxPerTerm: 3, Goal: major, Ranking: "reliability", K: 10}
	paths, _, err := nav.Ranked(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths in the projected window")
	}
	// The most reliable path must rank first and no value may exceed 1.
	for i, p := range paths {
		if p.Value <= 0 || p.Value > 1 {
			t.Errorf("path %d reliability = %g", i, p.Value)
		}
		if i > 0 && paths[i].Value > paths[i-1].Value+1e-12 {
			t.Errorf("reliability not non-increasing at %d", i)
		}
	}
	// Paths that elect projected (uncertain) offerings must be
	// distinguishable: starting late forces projected semesters, so some
	// path in a wide-enough k has value < 1.
	q2 := Query{Start: "Spring 2016", End: "Fall 2016", MaxPerTerm: 3}
	intro, err := nav.GoalCourses("COSI 12B", "COSI 21A")
	if err != nil {
		t.Fatal(err)
	}
	q2.Completed = []string{"COSI 11A"}
	q2.Goal, q2.Ranking, q2.K = intro, "reliability", 5
	paths2, _, err := nav.Ranked(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths2) == 0 {
		t.Fatal("no projected-window paths")
	}
	sawUncertain := false
	for _, p := range paths2 {
		if p.Value < 1 {
			sawUncertain = true
		}
	}
	if !sawUncertain {
		t.Error("projected offerings all carried probability 1; estimator not wired")
	}
	// Validation.
	if err := nav.ProjectBeyondRelease("nope", 4, 1, 0.6); err == nil {
		t.Error("bad horizon accepted")
	}
	if err := nav.ProjectBeyondRelease("Fall 2015", 4, 1, 0.6); err == nil {
		t.Error("horizon inside release accepted")
	}
}

func TestQueryConstraints(t *testing.T) {
	nav, major := Brandeis()
	ctx := context.Background()
	base := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}

	// Avoid: no path elects the avoided course, and the path set shrinks.
	withAvoid := base
	withAvoid.Avoid = []string{"COSI 2A"}
	g, sum, err := nav.Collect(ctx, withAvoid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Paths(true, 0) {
		if strings.Contains(p.String(), "COSI 2A") {
			t.Fatalf("avoided course on path %s", p)
		}
	}
	full, err := nav.Count(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoalPaths >= full.GoalPaths {
		t.Errorf("avoid did not shrink goal paths: %d vs %d", sum.GoalPaths, full.GoalPaths)
	}
	badAvoid := base
	badAvoid.Avoid = []string{"NOPE"}
	if _, _, err := nav.Collect(ctx, badAvoid); err == nil {
		t.Error("unknown avoid course accepted")
	}

	// MaxTermWorkload: semesters stay under the ceiling.
	capped := base
	capped.MaxTermWorkload = 25
	g2, _, err := nav.Collect(ctx, capped)
	if err != nil {
		t.Fatal(err)
	}
	w := map[string]float64{}
	for _, c := range nav.Courses() {
		w[c.ID] = c.Workload
	}
	for _, p := range g2.Paths(true, 10) {
		for _, sel := range p.Semesters {
			var sum float64
			for _, id := range sel.Courses {
				sum += w[id]
			}
			if sum > 25 {
				t.Fatalf("semester %s carries %.1f hours", sel.Term, sum)
			}
		}
	}

	// MinPerTerm: no 1-course semesters on any path.
	floored := base
	floored.MinPerTerm = 2
	g3, _, err := nav.Collect(ctx, Query{Start: "Spring 2015", End: "Fall 2015", MaxPerTerm: 3, MinPerTerm: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = floored
	for _, p := range g3.Paths(false, 0) {
		for _, sel := range p.Semesters {
			if len(sel.Courses) == 1 {
				t.Fatalf("single-course semester on %s", p)
			}
		}
	}
}

func TestTopKWeightedAndThreshold(t *testing.T) {
	nav, major := Brandeis()
	ctx := context.Background()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major, K: 5,
		Weights: []Weight{{Ranking: "time", Weight: 100}, {Ranking: "workload", Weight: 1}}}
	paths, _, err := nav.Ranked(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("weighted returned %d paths", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost {
			t.Error("weighted order broken")
		}
	}
	// Threshold: cap at the best cost; only ties remain.
	capped := q
	capped.MaxPathCost, capped.K = paths[0].Cost, 100
	paths2, _, err := nav.Ranked(ctx, capped)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths2) == 0 {
		t.Fatal("threshold erased everything")
	}
	for _, p := range paths2 {
		if p.Cost > paths[0].Cost {
			t.Errorf("cost %g over threshold %g", p.Cost, paths[0].Cost)
		}
	}
	// Validation.
	for _, w := range [][]Weight{{{Ranking: "magic", Weight: 1}}, {{Ranking: "time", Weight: -1}}} {
		bad := q
		bad.Weights = w
		if _, _, err := nav.Ranked(ctx, bad); err == nil {
			t.Errorf("weights %v accepted", w)
		}
	}
}

func TestAuditFacade(t *testing.T) {
	nav, major := Brandeis()
	rep, err := nav.Audit([]string{"COSI 11A", "COSI 29A", "COSI 2A"}, major,
		"Fall 2014", "Fall 2015", 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Error("partial transcript reported complete")
	}
	if rep.RemainingSlots != 9 {
		t.Errorf("remaining = %d, want 9", rep.RemainingSlots)
	}
	if rep.Groups[0].Filled != 2 || rep.Groups[1].Filled != 1 {
		t.Errorf("groups = %+v", rep.Groups)
	}
	// 9 slots, 2 course-taking semesters, m=3 → unreachable.
	if rep.Reachable {
		t.Error("9 slots in 2 semesters reported reachable")
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core: 2/7") {
		t.Errorf("report:\n%s", buf.String())
	}
	// Non-degree goals are rejected.
	expr, _ := nav.GoalExpr("COSI 11A")
	if _, err := nav.Audit(nil, expr, "", "", 3); err == nil {
		t.Error("expression goal accepted by Audit")
	}
	if _, err := nav.Audit([]string{"NOPE"}, major, "", "", 3); err == nil {
		t.Error("unknown completed course accepted")
	}
	if _, err := nav.Audit(nil, major, "nope", "", 3); err == nil {
		t.Error("bad now term accepted")
	}
	if _, err := nav.Audit(nil, major, "Fall 2014", "nope", 3); err == nil {
		t.Error("bad deadline accepted")
	}
}

func TestCompareSelectionsFacade(t *testing.T) {
	nav, major := Brandeis()
	ctx := context.Background()
	impacts, _, err := nav.WhatIf(ctx, Query{
		Completed:  []string{"COSI 11A", "COSI 29A"},
		Start:      "Spring 2014",
		End:        "Spring 2016",
		MaxPerTerm: 3,
		Goal:       major,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) == 0 {
		t.Fatal("no impacts")
	}
	// The whatif example's answer: {12B, 21A, 33B} maximises goal paths.
	best := impacts[0]
	if strings.Join(best.Courses, ",") != "COSI 12B,COSI 21A,COSI 33B" {
		t.Errorf("best = %v", best.Courses)
	}
	if best.GoalPaths != 35539 {
		t.Errorf("best GoalPaths = %d, want 35539 (whatif example regression)", best.GoalPaths)
	}
	if _, _, err := nav.WhatIf(ctx, Query{Start: "x", End: "y", Goal: major}); err == nil {
		t.Error("bad query accepted")
	}
}

// TestNavigatorSurfaceMatchesDocs: the exported method set of *Navigator
// equals the fenced list in DESIGN.md §3, in both directions, so a new
// façade entry point lands with its documentation or not at all.
func TestNavigatorSurfaceMatchesDocs(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(raw), "\n## 3. ")
	sec, _, _ = strings.Cut(sec, "\n## 4. ")
	_, block, ok := strings.Cut(sec, "```navigator-methods\n")
	if !ok {
		t.Fatal("DESIGN.md §3 has no ```navigator-methods block")
	}
	block, _, _ = strings.Cut(block, "```")
	documented := map[string]bool{}
	for _, name := range strings.Fields(block) {
		documented[name] = true
	}
	typ := reflect.TypeOf(&Navigator{})
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if !documented[name] {
			t.Errorf("exported method Navigator.%s is missing from DESIGN.md §3", name)
		}
		delete(documented, name)
	}
	for name := range documented {
		t.Errorf("DESIGN.md §3 lists Navigator.%s, which is not an exported method", name)
	}
	t.Logf("%d exported methods checked", typ.NumMethod())
}
