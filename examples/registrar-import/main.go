// Registrar import: build a catalog from raw registrar text — free-form
// course descriptions whose prerequisite sentences and "usually offered"
// phrases are extracted by the back-end parsers (paper §3, Figure 2) —
// overlay a final schedule, lint it, and explore it.
//
//	go run ./examples/registrar-import
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro"
)

// catalogDump is the registrar's course-description dump for a small
// music-technology programme. Prerequisites and schedules live inside
// the prose, exactly as a registrar publishes them.
const catalogDump = `
course: MUS 10A
title: Fundamentals of Music Technology
description: Sound, MIDI, and digital audio workstations. Open to all
  students. Usually offered every semester.
workload: 5

course: MUS 20A
title: Electronic Sound Synthesis
description: Subtractive and FM synthesis. Prerequisite: MUS 10a.
  Usually offered every fall.
workload: 8

course: MUS 21A
title: Audio Programming
description: DSP in code. Prerequisites: MUS 10a and COSI 11a, or
  permission of the instructor. Usually offered every spring.
workload: 10

course: MUS 30A
title: Studio Production
description: Capstone studio work. Prerequisite: MUS 20a or MUS 21a.
  Usually offered every second year.
workload: 12

course: COSI 11A
title: Introduction to Programming
description: First programming course. Usually offered every semester.
workload: 9
`

// finalSchedule is the released class schedule; it overrides the
// phrase-derived offerings for the courses it lists.
const finalSchedule = `
# registrar final schedule
MUS 30A | Fall 2013
MUS 30A | Fall 2015
`

// corruptDump is the same programme with two typical registrar defects:
// MUS 20A's prerequisite sentence is cut off mid-parenthesis and MUS 99X
// has a malformed workload. Strict import fails fast on the first defect;
// lenient import quarantines exactly the bad records and reports why.
const corruptDump = `
course: MUS 10A
title: Fundamentals of Music Technology
description: Sound and MIDI. Usually offered every semester.
workload: 5

course: MUS 20A
title: Electronic Sound Synthesis
description: Synthesis. Prerequisite: suitable placement (see department.
  Usually offered every fall.
workload: 8

course: MUS 99X
title: Broken Record
description: Usually offered every year.
workload: heavy
`

func main() {
	nav, err := coursenav.NewFromRegistrarDump(
		strings.NewReader(catalogDump),
		strings.NewReader(finalSchedule),
		"Fall 2012", "Fall 2015")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("parsed catalog:")
	for _, c := range nav.Courses() {
		fmt.Printf("  %-9s prereq=%-28q offered=%v\n", c.ID, c.Prereq, c.Offered)
	}
	if unreachable, never := nav.Lint(); len(unreachable)+len(never) > 0 {
		fmt.Printf("lint: unreachable=%v never-offered=%v\n", unreachable, never)
	}

	// Goal: the studio capstone plus audio programming.
	goal, err := nav.GoalExpr("MUS 30A and MUS 21A")
	if err != nil {
		log.Fatal(err)
	}
	q := coursenav.Query{
		Start:      "Fall 2012",
		End:        "Fall 2015",
		MaxPerTerm: 2,
		Goal:       goal,
	}
	g, sum, err := nav.Collect(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npaths to %q by %s: %d\n\n", goal, q.End, sum.GoalPaths)
	for i, p := range g.Paths(true, 4) {
		fmt.Printf("%d. %s\n", i+1, p)
	}

	// Strict vs lenient on a corrupted dump. Strict mode (above) fails
	// fast on the first malformed record; lenient mode imports what it
	// can, quarantines the rest and explains each drop.
	fmt.Println("\n--- corrupted dump ---")
	if _, err := coursenav.NewFromRegistrarDump(
		strings.NewReader(corruptDump), nil, "Fall 2012", "Fall 2015"); err != nil {
		fmt.Printf("strict import: %v\n", err)
	}
	lenient, rep, err := coursenav.NewFromRegistrarDumpLenient(
		strings.NewReader(corruptDump), nil, "Fall 2012", "Fall 2015")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lenient import: %d courses, %d quarantined %v\n",
		lenient.NumCourses(), len(rep.Quarantined), rep.Quarantined)
	for _, d := range rep.Diagnostics {
		fmt.Printf("  %s\n", d)
	}
	fmt.Printf("integrity: %s\n", rep.Integrity.Summary())
}
