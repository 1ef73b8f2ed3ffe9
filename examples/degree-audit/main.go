// Degree audit: a continuing student checks whether graduation is still
// reachable, sees every surviving plan, and exports the learning graph.
//
// This is the paper's motivating scenario — "given my past selections,
// are there paths that lead to a major in the next 4 semesters?" — run
// for a student who followed an unusual first year.
//
//	go run ./examples/degree-audit
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	nav, major := coursenav.Brandeis()

	// The student's transcript so far: a light first year — one intro
	// programming course, discrete maths, and two electives.
	completed := []string{"COSI 11A", "COSI 29A", "COSI 2A", "COSI 33B"}

	q := coursenav.Query{
		Completed:  completed,
		Start:      "Fall 2014", // entering the second year
		End:        "Fall 2015", // wants the major in 3 more semesters
		MaxPerTerm: 3,
		Goal:       major,
	}

	fmt.Printf("completed: %v\n", completed)
	opts, err := nav.FeasibleNow(completed, q.Start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("electable this semester: %v\n\n", opts)

	g, sum, err := nav.Collect(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	if sum.GoalPaths == 0 {
		fmt.Println("the major is NOT reachable by", q.End, "- consider a later deadline:")
		// Re-run one semester later to show the recovery plan.
		q.End = "Spring 2016"
		fmt.Println("(the embedded schedule ends Fall 2015, so project it first)")
		if err := nav.ProjectBeyondRelease("Spring 2016", 4, 1, 0.6); err != nil {
			log.Fatal(err)
		}
		g, sum, err = nav.Collect(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("plans reaching the major by %s: %d\n\n", q.End, sum.GoalPaths)

	for i, p := range g.Paths(true, 3) {
		fmt.Printf("plan %d: %s\n", i+1, p)
	}

	// Export the full learning graph for the visualizer.
	f, err := os.Create("degree-audit.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteDOT(f); err != nil {
		log.Fatal(err)
	}
	st := g.Stats()
	fmt.Printf("\nwrote degree-audit.dot (%d nodes, %d edges, %d goal nodes)\n",
		st.Nodes, st.Edges, st.GoalNodes)
	fmt.Println("render with: dot -Tsvg degree-audit.dot -o degree-audit.svg")
}
