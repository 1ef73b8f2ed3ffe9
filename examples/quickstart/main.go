// Quickstart: explore learning paths to a CS major over the embedded
// evaluation catalog — the fastest end-to-end tour of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// The embedded 38-course dataset and its CS-major goal
	// (7 core courses + any 5 electives).
	nav, major := coursenav.Brandeis()
	fmt.Printf("catalog: %d courses; goal: %s\n\n", nav.NumCourses(), major)

	// A brand-new student starting in Fall 2013, taking at most 3 courses
	// per semester, who wants the major by Fall 2015.
	q := coursenav.Query{
		Start:      "Fall 2013",
		End:        "Fall 2015",
		MaxPerTerm: 3,
		Goal:       major,
	}
	ctx := context.Background()

	// What can they take right now?
	now, err := nav.FeasibleNow(q.Completed, q.Start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("electable in %s: %v\n\n", q.Start, now)

	// How many ways are there to reach the major in time?
	sum, err := nav.Count(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("goal-driven exploration: %d paths generated, %d reach the major\n",
		sum.Paths, sum.GoalPaths)
	fmt.Printf("pruning cut %d subtrees (%d time-based, %d availability) in %v\n\n",
		sum.PrunedTime+sum.PrunedAvail, sum.PrunedTime, sum.PrunedAvail, sum.Elapsed)

	// The three shortest plans, via best-first top-k search.
	q.Ranking, q.K = "time", 3
	paths, _, err := nav.Ranked(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("three shortest plans:")
	for i, p := range paths {
		fmt.Printf("%d. (%.0f semesters) %s\n", i+1, p.Value, p)
	}

	// The least-workload plan.
	q.Ranking, q.K = "workload", 1
	easy, _, err := nav.Ranked(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlightest plan (%.0f weekly hours total): %s\n", easy[0].Value, easy[0])
}
