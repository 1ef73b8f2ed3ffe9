package coursenav_test

// Integration: the full CourseNavigator pipeline — registrar prose in,
// exploration service out — crossing every subsystem boundary in one
// scenario: back-end parsing (§3), catalog construction, goal-driven
// exploration with pruning (§4.2), ranked search (§4.3), schedule
// projection and reliability (§4.3.1), degree audit, plan validation,
// transcript synthesis and mining, and a schedule-revision impact check.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/impact"
	"repro/internal/mining"
	"repro/internal/term"
	"repro/internal/transcript"
)

// integrationDump is a small music-technology programme published as
// registrar prose: prerequisites and schedules live inside descriptions.
const integrationDump = `
course: MUS 10A
title: Fundamentals of Music Technology
description: Sound and digital audio. Usually offered every semester.
workload: 5

course: MUS 20A
title: Sound Synthesis
description: Synthesis techniques. Prerequisite: MUS 10a.
  Usually offered every fall.
workload: 8

course: MUS 21A
title: Audio Programming
description: DSP in code. Prerequisites: MUS 10a and COSI 11a.
  Usually offered every spring.
workload: 10

course: MUS 30A
title: Studio Production
description: Capstone. Prerequisite: MUS 20a or MUS 21a.
  Usually offered every year.
workload: 12

course: COSI 11A
title: Introduction to Programming
description: First programming course. Usually offered every semester.
workload: 9
`

func TestFullPipeline(t *testing.T) {
	// 1. Back-end: registrar prose → catalog.
	nav, err := coursenav.NewFromRegistrarDump(
		strings.NewReader(integrationDump), nil, "Fall 2012", "Fall 2014")
	if err != nil {
		t.Fatal(err)
	}
	if unreachable, never := nav.Lint(); len(unreachable)+len(never) != 0 {
		t.Fatalf("lint: %v %v", unreachable, never)
	}

	// 2. Goal-driven exploration with pruning: the capstone programme.
	goal, err := nav.GoalCourses("MUS 30A", "MUS 21A")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := coursenav.Query{Start: "Fall 2012", End: "Fall 2014", MaxPerTerm: 2, Goal: goal}
	g, sum, err := nav.Collect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoalPaths == 0 {
		t.Fatal("no goal paths through the parsed catalog")
	}
	// Every reported goal path replays cleanly as a plan.
	for _, p := range g.Paths(true, 0) {
		var plan strings.Builder
		plan.WriteString("student: path\n")
		for _, sel := range p.Semesters {
			plan.WriteString(sel.Term + ": " + strings.Join(sel.Courses, ", ") + "\n")
		}
		results, err := nav.ValidatePlans(strings.NewReader(plan.String()), q.MaxPerTerm, goal)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != "" || !results[0].GoalMet {
			t.Fatalf("generated path does not validate: %+v\n%s", results[0], plan.String())
		}
	}

	// 3. Ranked search agrees with the cheapest enumerated path.
	q.Ranking, q.K = "time", 1
	paths, _, err := nav.Ranked(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Value <= 0 {
		t.Fatalf("top-1 = %+v", paths)
	}

	// 4. Projection past the release + reliability ranking.
	if err := nav.ProjectBeyondRelease("Fall 2015", 3, 7, 0.5); err != nil {
		t.Fatal(err)
	}
	qWide := coursenav.Query{Start: "Fall 2014", End: "Fall 2015", MaxPerTerm: 2, Goal: goal, Ranking: "reliability", K: 3}
	rel, _, err := nav.Ranked(ctx, qWide)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rel {
		if p.Value <= 0 || p.Value > 1 {
			t.Fatalf("projected reliability = %g", p.Value)
		}
	}

	// 5. Degree audit over a counted requirement.
	req, err := nav.GoalDegree(
		coursenav.DegreeGroup{Name: "mus-core", Count: 2, Courses: []string{"MUS 10A", "MUS 20A", "MUS 21A"}},
		coursenav.DegreeGroup{Name: "capstone", Count: 1, Courses: []string{"MUS 30A"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nav.Audit([]string{"MUS 10A"}, req, "Fall 2013", "Fall 2014", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.RemainingSlots != 2 {
		t.Fatalf("audit = %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mus-core: 1/2") {
		t.Fatalf("audit report:\n%s", buf.String())
	}

	// 6. Transcript synthesis and mining on the same catalog (internal
	// layers under the public exploration surface).
	cat, err := catalog.FromSpecs(term.TwoSeason, mustSpecs(t, nav))
	if err != nil {
		t.Fatal(err)
	}
	innerGoal, err := degree.NewCourseSet(cat, "MUS 30A", "MUS 21A")
	if err != nil {
		t.Fatal(err)
	}
	f12 := term.TwoSeason.MustTerm(2012, term.Fall)
	f14 := term.TwoSeason.MustTerm(2014, term.Fall)
	trs, err := transcript.Generate(cat, innerGoal, f12, f14, 2, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := mining.NewCorpus(cat, trs, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	pop := corpus.Popularity()
	if len(pop) == 0 || pop[0].Count != corpus.Size() {
		t.Fatalf("popularity = %+v", pop)
	}

	// 7. Impact of a revision that cancels MUS 21A's springs. The fall
	// chain 10A → 20A → 30A needs three falls, one more than the window
	// has, so the capstone becomes unreachable — one cancelled course
	// collapses the whole path space, the scenario §1 warns about.
	revised := strings.ReplaceAll(integrationDump,
		"DSP in code. Prerequisites: MUS 10a and COSI 11a.\n  Usually offered every spring.",
		"DSP in code. Prerequisites: MUS 10a and COSI 11a.")
	nav2, err := coursenav.NewFromRegistrarDump(strings.NewReader(revised), nil, "Fall 2012", "Fall 2014")
	if err != nil {
		t.Fatal(err)
	}
	newCat, err := catalog.FromSpecs(term.TwoSeason, mustSpecs(t, nav2))
	if err != nil {
		t.Fatal(err)
	}
	irep, err := impact.Compare(cat, newCat, impact.Analysis{
		Start: f12, End: f14, MaxPerTerm: 2,
		Goal: func(c *catalog.Catalog) (degree.Goal, error) {
			return degree.NewCourseSet(c, "MUS 30A")
		},
		Plans: trs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if irep.NewGoalPaths >= irep.OldGoalPaths {
		t.Errorf("revision did not shrink the path space: %d → %d", irep.OldGoalPaths, irep.NewGoalPaths)
	}
	if irep.StillReachable || irep.NewGoalPaths != 0 {
		t.Errorf("cancelling MUS 21A should make MUS 30A unreachable by Fall '14; got %d paths", irep.NewGoalPaths)
	}
	if len(irep.BrokenPlans) == 0 {
		t.Error("no broken plans despite cancelling MUS 21A (all transcripts use it)")
	}
}

// mustSpecs round-trips a Navigator's catalog to specs via its JSON form.
func mustSpecs(t *testing.T, nav *coursenav.Navigator) []catalog.CourseSpec {
	t.Helper()
	var buf bytes.Buffer
	if err := nav.WriteCatalogJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.ReadJSON(term.TwoSeason, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return cat.Specs()
}
