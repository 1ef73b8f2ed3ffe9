package coursenav_test

import (
	"context"
	"fmt"
	"strings"

	"repro"
)

// The examples below run against the embedded evaluation dataset and are
// verified by `go test`; their outputs double as the paper's worked
// numbers for the 4-semester window.

func ExampleNavigator_FeasibleNow() {
	nav, _ := coursenav.Brandeis()
	options, _ := nav.FeasibleNow([]string{"COSI 11A"}, "Spring 2014")
	fmt.Println(strings.Join(options, ", "))
	// Output: COSI 2A, COSI 12B, COSI 21A, COSI 33B
}

func ExampleNavigator_Count() {
	nav, major := coursenav.Brandeis()
	sum, _ := nav.Count(context.Background(), coursenav.Query{
		Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major,
	})
	fmt.Printf("%d generated paths, %d reach the CS major\n", sum.Paths, sum.GoalPaths)
	// Output: 1679 generated paths, 117 reach the CS major
}

func ExampleNavigator_Ranked() {
	nav, major := coursenav.Brandeis()
	paths, _, _ := nav.Ranked(context.Background(), coursenav.Query{
		Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3,
		Goal: major, Ranking: "time", K: 1,
	})
	fmt.Printf("shortest plan takes %.0f semesters:\n%s\n", paths[0].Value, paths[0])
	// Output:
	// shortest plan takes 4 semesters:
	// Fall 2013: {COSI 2A, COSI 11A, COSI 29A} → Spring 2014: {COSI 12B, COSI 21A, COSI 33B} → Fall 2014: {COSI 30A, COSI 65A, COSI 120A} → Spring 2015: {COSI 21B, COSI 31A, COSI 119A}
}

func ExampleNavigator_Audit() {
	nav, major := coursenav.Brandeis()
	rep, _ := nav.Audit([]string{"COSI 11A", "COSI 29A", "COSI 2A"}, major, "", "", 3)
	for _, g := range rep.Groups {
		fmt.Printf("%s: %d/%d\n", g.Name, g.Filled, g.Needed)
	}
	fmt.Printf("%d slots remaining\n", rep.RemainingSlots)
	// Output:
	// core: 2/7
	// elective: 1/5
	// 9 slots remaining
}

func ExampleNavigator_WhatIf() {
	nav, major := coursenav.Brandeis()
	impacts, _, _ := nav.WhatIf(context.Background(), coursenav.Query{
		Completed:  []string{"COSI 11A", "COSI 29A"},
		Start:      "Spring 2014",
		End:        "Spring 2016",
		MaxPerTerm: 3,
		Goal:       major,
	})
	best := impacts[0]
	fmt.Printf("best move: {%s} keeps %d paths to the major\n",
		strings.Join(best.Courses, ", "), best.GoalPaths)
	// Output: best move: {COSI 12B, COSI 21A, COSI 33B} keeps 35539 paths to the major
}

func ExampleNavigator_ValidatePlans() {
	nav, major := coursenav.Brandeis()
	plan := `student: ambitious
Fall 2013: COSI 11A, COSI 29A, COSI 2A
Spring 2014: COSI 12B, COSI 21A, COSI 33B
Fall 2014: COSI 30A, COSI 127B, COSI 25A
Spring 2015: COSI 21B, COSI 31A, COSI 119A
`
	results, _ := nav.ValidatePlans(strings.NewReader(plan), 3, major)
	r := results[0]
	fmt.Printf("%s: valid=%v reaches major=%v\n", r.Student, r.Err == "", r.GoalMet)
	// Output: ambitious: valid=true reaches major=true
}

func ExampleNavigator_Stream() {
	nav, major := coursenav.Brandeis()
	// Stream paths as the engine completes them — no graph is built, so
	// memory stays proportional to the search depth. ErrStopStream ends
	// the run cleanly after the first goal path.
	sum, _ := nav.Stream(context.Background(), coursenav.Query{
		Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major,
	}, func(p coursenav.StreamedPath) error {
		if !p.Goal {
			return nil
		}
		fmt.Println(p.Path)
		return coursenav.ErrStopStream
	})
	fmt.Printf("stopped=%s after %d paths\n", sum.Stopped, sum.Paths)
	// Output:
	// Fall 2013: {COSI 2A, COSI 11A, COSI 29A} → Spring 2014: {COSI 12B, COSI 21A, COSI 33B} → Fall 2014: {COSI 30A, COSI 107A, COSI 127B} → Spring 2015: {COSI 21B, COSI 31A, COSI 105A}
	// stopped=sink after 37 paths
}

func ExampleNavigator_Seq() {
	nav, major := coursenav.Brandeis()
	// The range-over-func form of Stream: breaking the loop stops the
	// exploration.
	goalPaths := 0
	for p, err := range nav.Seq(context.Background(), coursenav.Query{
		Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major,
	}) {
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if p.Goal {
			goalPaths++
			if goalPaths == 3 {
				break
			}
		}
	}
	fmt.Printf("saw %d goal paths, then stopped the engine\n", goalPaths)
	// Output: saw 3 goal paths, then stopped the engine
}

func ExampleNavigator_Seq_ranked() {
	nav, major := coursenav.Brandeis()
	// Ranked streaming delivers best-first: the first yielded path is the
	// single best plan, available long before the search completes.
	for p, err := range nav.Seq(context.Background(), coursenav.Query{
		Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3,
		Goal: major, Ranking: "time", K: 5,
	}) {
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("best plan takes %.0f semesters\n", p.Value)
		break
	}
	// Output: best plan takes 4 semesters
}

func ExampleNavigator_GoalExpr() {
	nav, _ := coursenav.Brandeis()
	goal, _ := nav.GoalExpr("COSI 127B or COSI 101A")
	sum, _ := nav.Count(context.Background(), coursenav.Query{
		Start: "Fall 2013", End: "Spring 2015", MaxPerTerm: 2, Goal: goal,
	})
	fmt.Printf("paths to a data-systems course: %d\n", sum.GoalPaths)
	// Output: paths to a data-systems course: 96
}
