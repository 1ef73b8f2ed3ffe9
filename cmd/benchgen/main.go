// Command benchgen regenerates every table and figure of the paper's
// evaluation (§5) and prints them in the paper's row format; with -json
// it additionally writes machine-readable results.
//
// Usage:
//
//	benchgen [-exp all|table1|table2|figure4|transcripts|figures|ablations]
//	         [-full]
//	         [-transcripts 83] [-seed 2016] [-json results.json]
//
// -full counts the explosive goal-driven rows (6-7 semesters) by full
// tree enumeration exactly like the paper (minutes of runtime); by
// default those rows count on the DAG counting kernel, which produces
// identical path counts in seconds but whose runtime column is marked
// with * as not comparable. EXPERIMENTS.md records paper-vs-measured
// values from this tool's output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

type results struct {
	Table1      []experiments.Table1Row       `json:"table1,omitempty"`
	Table2      []experiments.Table2Row       `json:"table2,omitempty"`
	Figure4     []experiments.Figure4Point    `json:"figure4,omitempty"`
	Transcripts *experiments.TranscriptResult `json:"transcripts,omitempty"`
	Ablations   []experiments.AblationRow     `json:"ablations,omitempty"`
	Scaling     []experiments.ScalingPoint    `json:"scaling,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, figure4, transcripts, figures, ablations, scaling")
	full := flag.Bool("full", false, "full tree enumeration for the explosive Table 2 rows (paper-style, minutes)")
	nTranscripts := flag.Int("transcripts", 83, "number of synthesised transcripts for the §5.2 comparison")
	seed := flag.Int64("seed", 2016, "transcript synthesis seed")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file")
	flag.Parse()

	env, err := experiments.NewEnv()
	if err != nil {
		log.Fatalf("benchgen: %v", err)
	}
	var out results
	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		rows, err := experiments.RunTable1(env, []int{4, 5})
		if err != nil {
			log.Fatalf("benchgen: table1: %v", err)
		}
		experiments.PrintTable1(os.Stdout, rows)
		fmt.Println()
		out.Table1 = rows
	}
	if want("table2") {
		rows, err := experiments.RunTable2(env, experiments.Table2Config{
			Semesters: []int{4, 5, 6, 7},
			Full:      *full,
		})
		if err != nil {
			log.Fatalf("benchgen: table2: %v", err)
		}
		experiments.PrintTable2(os.Stdout, rows)
		fmt.Println()
		out.Table2 = rows
	}
	if want("figure4") {
		points, err := experiments.RunFigure4(env, []int{6, 7, 8}, []int{10, 100, 500, 1000})
		if err != nil {
			log.Fatalf("benchgen: figure4: %v", err)
		}
		experiments.PrintFigure4(os.Stdout, points)
		fmt.Println()
		out.Figure4 = points
	}
	if *exp == "scaling" { // opt-in only: larger catalogs take a while
		points, err := experiments.RunScaling([]int{20, 30, 38, 50, 65}, 11)
		if err != nil {
			log.Fatalf("benchgen: scaling: %v", err)
		}
		experiments.PrintScaling(os.Stdout, points)
		fmt.Println()
		out.Scaling = points
	}
	if want("ablations") {
		rows, err := experiments.RunAblations(env, 3)
		if err != nil {
			log.Fatalf("benchgen: ablations: %v", err)
		}
		experiments.PrintAblations(os.Stdout, rows)
		fmt.Println()
		out.Ablations = rows
	}
	if want("figures") {
		if err := experiments.PrintWorkedExamples(os.Stdout); err != nil {
			log.Fatalf("benchgen: figures: %v", err)
		}
		fmt.Println()
	}
	if want("transcripts") {
		res, err := experiments.RunTranscripts(env, *nTranscripts, *seed, true)
		if err != nil {
			log.Fatalf("benchgen: transcripts: %v", err)
		}
		experiments.PrintTranscripts(os.Stdout, res)
		fmt.Println()
		out.Transcripts = &res
	}
	if out.Table1 == nil && out.Table2 == nil && out.Figure4 == nil && out.Transcripts == nil &&
		out.Ablations == nil && out.Scaling == nil && *exp != "figures" {
		log.Fatalf("benchgen: unknown experiment %q", *exp)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatalf("benchgen: %v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatalf("benchgen: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("benchgen: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
