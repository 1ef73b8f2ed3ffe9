// Popular paths: mine a transcript corpus Learn2learn-style (the paper's
// related-work system [7]) and contrast the handful of paths students
// actually follow with the full space CourseNavigator enumerates — the
// §5.2 observation that "there are a huge number of paths that are never
// considered by the students".
//
// The corpus is synthesised (real transcripts are not public; see
// DESIGN.md §4) with the same generator the §5.2 experiment uses, so this
// example doubles as a walkthrough of the transcript and mining
// substrates under the public exploration API.
//
//	go run ./examples/popular-paths
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/brandeis"
	"repro/internal/mining"
	"repro/internal/transcript"
)

func main() {
	nav, major := coursenav.Brandeis()
	cat := brandeis.Catalog()
	majorReq, err := brandeis.Major(cat)
	if err != nil {
		log.Fatal(err)
	}

	// 200 students, Fall 2013 → Fall 2015 (the 4-semester Table 2 window).
	start, end := brandeis.StartForSemesters(4), brandeis.EndTerm()
	trs, err := transcript.Generate(cat, majorReq, start, end, brandeis.MaxPerTerm, 200, 99)
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := mining.NewCorpus(cat, trs, true, brandeis.MaxPerTerm)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("corpus: %d goal-reaching transcripts, %s → %s\n\n", corpus.Size(), start, end)

	fmt.Println("most-taken courses:")
	for i, cc := range corpus.Popularity() {
		if i >= 8 {
			break
		}
		fmt.Printf("  %3d students  %s\n", cc.Count, cc.Course)
	}

	fmt.Println("\nmost common same-semester pairings:")
	for i, pc := range corpus.CoEnrollment(2) {
		if i >= 5 {
			break
		}
		fmt.Printf("  %3d students  %s + %s\n", pc.Count, pc.A, pc.B)
	}

	loads := corpus.LoadProfile()
	fmt.Println("\naverage course load by semester:")
	for i, l := range loads {
		fmt.Printf("  semester %d: %.2f courses\n", i+1, l)
	}

	fmt.Println("\nwell-trodden path prefixes (≥10 students):")
	for i, p := range corpus.PopularPrefixes(10) {
		if i >= 6 {
			break
		}
		fmt.Printf("  %s\n", p)
	}

	// The contrast: how many paths exist vs how many the corpus explores.
	sum, err := nav.Count(context.Background(), coursenav.Query{
		Start: start.Label(), End: end.Label(), MaxPerTerm: brandeis.MaxPerTerm, Goal: major,
	})
	if err != nil {
		log.Fatal(err)
	}
	distinct := len(corpus.PopularPaths(1))
	fmt.Printf("\n%d distinct paths across %d students — CourseNavigator enumerates %d paths to the major for the same period (%.1f%% explored)\n",
		distinct, corpus.Size(), sum.GoalPaths,
		100*float64(distinct)/float64(sum.GoalPaths))
}
