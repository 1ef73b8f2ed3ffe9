// What-if: compare this semester's candidate course selections by how
// many future paths to the major each preserves — the paper's
// introduction asks exactly this: "which course selections increase my
// future course options and number of possible paths to a CS major?"
//
// WhatIf enumerates every selection the student could make
// this semester and counts the goal-driven paths from each resulting
// enrollment status.
//
//	go run ./examples/whatif
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	nav, major := coursenav.Brandeis()

	// The student is starting Spring 2014 having taken the two fall intro
	// courses, and wants the major completed when Spring 2016 begins (the
	// end semester's own courses do not count: X at the end node holds
	// only courses finished before it).
	q := coursenav.Query{
		Completed:  []string{"COSI 11A", "COSI 29A"},
		Start:      "Spring 2014",
		End:        "Spring 2016",
		MaxPerTerm: 3,
	}

	options, err := nav.FeasibleNow(q.Completed, q.Start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("electable in %s after %v:\n  %s\n\n", q.Start, q.Completed, strings.Join(options, ", "))

	q.Goal = major
	impacts, _, err := nav.WhatIf(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("paths to the major by %s, per %s selection:\n", q.End, q.Start)
	dead := 0
	for _, imp := range impacts {
		if imp.GoalPaths == 0 {
			dead++
			continue
		}
		fmt.Printf("  %6d paths  %2d next-semester options  {%s}\n",
			imp.GoalPaths, imp.NextOptions, strings.Join(imp.Courses, ", "))
	}
	if dead > 0 {
		fmt.Printf("  … and %d selections that close off the major entirely\n", dead)
	}
	if len(impacts) > 0 && impacts[0].GoalPaths > 0 {
		fmt.Printf("\nbest move: take {%s}\n", strings.Join(impacts[0].Courses, ", "))
	}
}
