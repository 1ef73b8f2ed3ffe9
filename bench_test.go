// Benchmarks regenerating the paper's evaluation (one per table/figure
// plus the design-choice ablations listed in DESIGN.md). Run:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; the reproduced quantities are
// the *relationships* the paper reports — pruning ≫ no-pruning (Table 1),
// goal-driven ≪ deadline-driven (Table 2), near-interactive top-k at
// every k (Figure 4). cmd/benchgen prints the corresponding tables in
// the paper's row format.
package coursenav_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/explore"
	"repro/internal/rank"
	"repro/internal/status"
	"repro/internal/transcript"
)

// The catalog and goal are cached across benchmarks.
var (
	benchCat      = brandeis.Catalog()
	benchMajor, _ = brandeis.Major(benchCat)
)

func benchStart(d int) status.Status {
	return status.New(benchCat, brandeis.StartForSemesters(d), bitset.New(benchCat.Len()))
}

func benchOpt() explore.Options {
	return explore.Options{MaxPerTerm: brandeis.MaxPerTerm}
}

func benchPruners() []explore.Pruner {
	return explore.PaperPruners(benchCat, benchMajor, brandeis.MaxPerTerm)
}

// --- Table 1: goal-driven generation with and without pruning ---------

func BenchmarkTable1GoalPruning(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.GoalCount(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor, benchPruners(), benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Paths), "paths")
			}
		})
	}
}

func BenchmarkTable1GoalNoPruning(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.GoalCount(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor, nil, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Paths), "paths")
			}
		})
	}
}

// --- Table 2: deadline-driven vs goal-driven scalability --------------

func BenchmarkTable2Deadline(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.DeadlineCount(benchCat, benchStart(d), brandeis.EndTerm(), benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Paths), "paths")
			}
		})
	}
}

func BenchmarkTable2DeadlineMaterialize(b *testing.B) {
	// The paper's Table 2 deadline rows materialise the graph (and run out
	// of memory past 5 semesters); this measures the materialising path.
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.Deadline(benchCat, benchStart(d), brandeis.EndTerm(), benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				if res.Graph == nil {
					b.Fatal("no graph")
				}
			}
		})
	}
}

func BenchmarkTable2Goal(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.GoalCount(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor, benchPruners(), benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4: ranked top-k runtime ------------------------------------

func BenchmarkFigure4Ranked(b *testing.B) {
	for _, d := range []int{6, 7, 8} {
		for _, k := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("semesters=%d/k=%d", d, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := explore.Ranked(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor,
						rank.Time{}, k, benchPruners(), benchOpt())
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Paths) != k {
						b.Fatalf("found %d paths", len(res.Paths))
					}
				}
			})
		}
	}
}

func BenchmarkFigure4RankedWorkload(b *testing.B) {
	// The paper's Figure 4 uses time-based ranking; workload exercises the
	// weaker-heuristic ranker. Its A* bound (left × cheapest workload) is
	// loose, so the search degenerates toward uniform-cost on wide windows;
	// the 5-semester window keeps the explored tree pruning-bounded.
	w := rank.Workload{W: benchCat.Workloads()}
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.Ranked(benchCat, benchStart(5), brandeis.EndTerm(), benchMajor,
					w, k, benchPruners(), benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- DAG substrate: counting and what-if vs the tree walk ---------------

// BenchmarkCountTreeVsDAG compares deadline counting on the two
// substrates. The tree walk's cost scales with the number of paths; the
// DAG's with the number of distinct (semester, completed-set) statuses,
// which grows orders of magnitude slower — EXPERIMENTS.md records the
// measured gap. The 8-semester empty-start rows are skipped: the status
// DAG's edge count grows roughly three orders of magnitude per two added
// semesters, so even the DAG build is far beyond interactive there (and
// the tree walk's ~10^13 paths are hopeless).
func BenchmarkCountTreeVsDAG(b *testing.B) {
	substrates := []struct {
		name string
		s    explore.Substrate
	}{
		{"tree", explore.SubstrateTree},
		{"dag", explore.SubstrateDAG},
	}
	for _, d := range []int{4, 6, 8} {
		for _, sub := range substrates {
			b.Run(fmt.Sprintf("semesters=%d/substrate=%s", d, sub.name), func(b *testing.B) {
				if d >= 8 {
					b.Skip("8-semester empty-start counting is infeasible on either substrate (DAG edges grow ~1000x per two semesters; the tree has ~10^13 paths)")
				}
				opt := benchOpt()
				opt.Substrate = sub.s
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := explore.DeadlineCount(benchCat, benchStart(d), brandeis.EndTerm(), opt)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Paths), "paths")
				}
			})
		}
	}
}

// BenchmarkWhatIfDelta compares what-if analysis (per-candidate path
// deltas for the next term) on the two substrates. The tree variant
// counts each candidate with a plain tree walk; the DAG variant counts
// every candidate on one counting kernel, so statuses shared between
// candidates are expanded once.
func BenchmarkWhatIfDelta(b *testing.B) {
	substrates := []struct {
		name string
		s    explore.Substrate
	}{
		{"tree", explore.SubstrateTree},
		{"dag", explore.SubstrateDAG},
	}
	for _, d := range []int{5, 6} {
		for _, sub := range substrates {
			b.Run(fmt.Sprintf("semesters=%d/substrate=%s", d, sub.name), func(b *testing.B) {
				opt := benchOpt()
				opt.Substrate = sub.s
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impacts, _, err := explore.CompareSelectionsCtx(context.Background(), benchCat,
						benchStart(d), brandeis.EndTerm(), benchMajor, benchPruners(), opt)
					if err != nil {
						b.Fatal(err)
					}
					if len(impacts) == 0 {
						b.Fatal("no candidate selections")
					}
				}
			})
		}
	}
}

// --- §5.2: transcript containment --------------------------------------

func BenchmarkTranscriptGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trs, err := transcript.Generate(benchCat, benchMajor, brandeis.StartForSemesters(6),
			brandeis.EndTerm(), brandeis.MaxPerTerm, 83, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(trs) != 83 {
			b.Fatal("short generation")
		}
	}
}

func BenchmarkTranscriptReplay(b *testing.B) {
	trs, err := transcript.Generate(benchCat, benchMajor, brandeis.StartForSemesters(6),
		brandeis.EndTerm(), brandeis.MaxPerTerm, 83, 2016)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if _, err := transcript.Replay(benchCat, tr, brandeis.MaxPerTerm); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md design choices) -------------------------------

// BenchmarkAblationMinTakeFilter compares child-side time pruning (the
// paper's algorithm) against generation-side selection filtering.
func BenchmarkAblationMinTakeFilter(b *testing.B) {
	for _, filter := range []bool{false, true} {
		b.Run(fmt.Sprintf("filter=%v", filter), func(b *testing.B) {
			opt := benchOpt()
			opt.MinTakeFilter = filter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.GoalCount(benchCat, benchStart(5), brandeis.EndTerm(), benchMajor, benchPruners(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPrereqAwareAvail compares the paper's schedule-only
// availability pruning with the prerequisite-aware refinement.
func BenchmarkAblationPrereqAwareAvail(b *testing.B) {
	for _, aware := range []bool{false, true} {
		b.Run(fmt.Sprintf("prereqAware=%v", aware), func(b *testing.B) {
			pruners := []explore.Pruner{
				explore.TimePruner{Goal: benchMajor, MaxPerTerm: brandeis.MaxPerTerm},
				explore.AvailPruner{Cat: benchCat, Goal: benchMajor, PrereqAware: aware},
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.GoalCount(benchCat, benchStart(5), brandeis.EndTerm(), benchMajor, pruners, benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEmptyPolicy measures the cost of the three
// empty-selection policies on the deadline algorithm.
func BenchmarkAblationEmptyPolicy(b *testing.B) {
	for _, policy := range []explore.EmptyPolicy{explore.EmptyWhenStuck, explore.EmptyNever, explore.EmptyAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			opt := benchOpt()
			opt.Empty = policy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.DeadlineCount(benchCat, benchStart(3), brandeis.EndTerm(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
