// Package experiments regenerates the paper's evaluation (§5): Table 1
// (pruning effectiveness), Table 2 (deadline- vs goal-driven
// scalability), Figure 4 (ranked top-k runtime) and the §5.2 comparison
// against actual student paths. Each experiment has a Run function
// returning structured rows and a Print function emitting the paper's row
// format; cmd/benchgen wires them to the command line and EXPERIMENTS.md
// records paper-vs-measured values.
//
// All experiments use the embedded Brandeis-like dataset with the paper's
// settings: empty starting enrollment status, m = 3 courses per semester,
// the CS-major goal (7 core + 5 electives), end semester Fall '15, and
// start semesters d ∈ {4,…,8} semesters before it.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/rank"
	"repro/internal/status"
)

// Env bundles the shared experimental setup.
type Env struct {
	Cat   *catalog.Catalog
	Major degree.Goal
}

// NewEnv builds the paper's experimental environment.
func NewEnv() (*Env, error) {
	cat := brandeis.Catalog()
	major, err := brandeis.Major(cat)
	if err != nil {
		return nil, err
	}
	return &Env{Cat: cat, Major: major}, nil
}

func (e *Env) start(d int) status.Status {
	return status.New(e.Cat, brandeis.StartForSemesters(d), bitset.New(e.Cat.Len()))
}

func (e *Env) opt() explore.Options {
	return explore.Options{MaxPerTerm: brandeis.MaxPerTerm}
}

func (e *Env) pruners() []explore.Pruner {
	return explore.PaperPruners(e.Cat, e.Major, brandeis.MaxPerTerm)
}

// ---------------------------------------------------------------------
// Table 1: goal-driven path generation with and without pruning.

// Table1Row is one semester-count row of Table 1, extended with the
// per-strategy split the paper reports in prose (82% time / 18%
// availability).
type Table1Row struct {
	Semesters        int
	PrunePaths       int64
	PruneGoalPaths   int64
	PruneRuntime     time.Duration
	NoPrunePaths     int64
	NoPruneGoalPaths int64
	NoPruneRuntime   time.Duration
	PrunedTime       int64
	PrunedAvail      int64
}

// PctPathsPruned returns the fraction of no-pruning paths eliminated.
func (r Table1Row) PctPathsPruned() float64 {
	if r.NoPrunePaths == 0 {
		return 0
	}
	return 100 * float64(r.NoPrunePaths-r.PrunePaths) / float64(r.NoPrunePaths)
}

// PctRuntimeSaved returns the runtime improvement from pruning.
func (r Table1Row) PctRuntimeSaved() float64 {
	if r.NoPruneRuntime == 0 {
		return 0
	}
	return 100 * float64(r.NoPruneRuntime-r.PruneRuntime) / float64(r.NoPruneRuntime)
}

// TimePruneShare returns the share of pruned nodes cut by the time-based
// strategy (the paper reports 82%).
func (r Table1Row) TimePruneShare() float64 {
	total := r.PrunedTime + r.PrunedAvail
	if total == 0 {
		return 0
	}
	return 100 * float64(r.PrunedTime) / float64(total)
}

// RunTable1 runs the Table 1 comparison for the given semester counts
// (the paper uses 4 and 5).
func RunTable1(env *Env, semesters []int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(semesters))
	for _, d := range semesters {
		withRes, err := explore.GoalCount(env.Cat, env.start(d), brandeis.EndTerm(), env.Major, env.pruners(), env.opt())
		if err != nil {
			return nil, fmt.Errorf("table1 d=%d with pruning: %v", d, err)
		}
		withoutRes, err := explore.GoalCount(env.Cat, env.start(d), brandeis.EndTerm(), env.Major, nil, env.opt())
		if err != nil {
			return nil, fmt.Errorf("table1 d=%d without pruning: %v", d, err)
		}
		rows = append(rows, Table1Row{
			Semesters:        d,
			PrunePaths:       withRes.Paths,
			PruneGoalPaths:   withRes.GoalPaths,
			PruneRuntime:     withRes.Elapsed,
			NoPrunePaths:     withoutRes.Paths,
			NoPruneGoalPaths: withoutRes.GoalPaths,
			NoPruneRuntime:   withoutRes.Elapsed,
			PrunedTime:       withRes.PrunedTime,
			PrunedAvail:      withRes.PrunedAvail,
		})
	}
	return rows, nil
}

// PrintTable1 renders rows in the paper's Table 1 format plus the
// per-strategy split.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Goal-driven path generation with and without pruning")
	fmt.Fprintf(w, "%-10s | %-26s | %-26s | %s\n", "semesters", "Pruning", "No Pruning", "prune split")
	fmt.Fprintf(w, "%-10s | %12s %13s | %12s %13s | %s\n", "", "# of paths", "runtime", "# of paths", "runtime", "time/avail")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d | %12d %13s | %12d %13s | %.0f%% / %.0f%%\n",
			r.Semesters,
			r.PrunePaths, fmtDur(r.PruneRuntime),
			r.NoPrunePaths, fmtDur(r.NoPruneRuntime),
			r.TimePruneShare(), 100-r.TimePruneShare())
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  d=%d: %.1f%% of paths pruned, %.1f%% runtime saved\n",
			r.Semesters, r.PctPathsPruned(), r.PctRuntimeSaved())
	}
}

// ---------------------------------------------------------------------
// Table 2: deadline-driven vs goal-driven scalability.

// Table2Row is one row of Table 2. DeadlineOOM mirrors the paper's "N/A"
// rows: materialising the deadline graph exceeded the memory budget.
type Table2Row struct {
	Semesters       int
	DeadlinePaths   int64
	DeadlineRuntime time.Duration
	DeadlineOOM     bool
	GoalPaths       int64 // generated paths (the paper's "# of paths")
	GoalGoalPaths   int64 // the subset ending at the goal
	GoalRuntime     time.Duration
	GoalMemoised    bool // counted with status interning, on the DAG counting kernel (DESIGN.md §13)
}

// Table2Config tunes the scalability run.
type Table2Config struct {
	// Semesters lists the academic-period lengths (paper: 4-7).
	Semesters []int
	// DeadlineNodeBudget emulates the paper's 32 GB memory limit: the
	// deadline graph is materialised up to this many nodes, beyond which
	// the row reports N/A. 0 uses 4,000,000 (~1 GiB of nodes).
	DeadlineNodeBudget int
	// Full counts the long goal-driven rows by full tree enumeration like
	// the paper (minutes); otherwise rows with d ≥ MemoiseFrom count with
	// status interning — the DAG counting kernel — which yields identical
	// path counts but is not runtime-comparable.
	Full bool
	// MemoiseFrom is the semester count at which non-Full runs switch to
	// the kernel. 0 means 6.
	MemoiseFrom int
}

// RunTable2 runs the scalability comparison.
func RunTable2(env *Env, cfg Table2Config) ([]Table2Row, error) {
	if cfg.DeadlineNodeBudget == 0 {
		cfg.DeadlineNodeBudget = 4_000_000
	}
	if cfg.MemoiseFrom == 0 {
		cfg.MemoiseFrom = 6
	}
	rows := make([]Table2Row, 0, len(cfg.Semesters))
	for _, d := range cfg.Semesters {
		row := Table2Row{Semesters: d}
		// Deadline-driven: materialise within the memory budget.
		opt := env.opt()
		opt.MaxNodes = cfg.DeadlineNodeBudget
		dres, err := explore.Deadline(env.Cat, env.start(d), brandeis.EndTerm(), opt)
		switch {
		case err == nil:
			row.DeadlinePaths = dres.Paths
			row.DeadlineRuntime = dres.Elapsed
		case isTooLarge(err):
			row.DeadlineOOM = true
		default:
			return nil, fmt.Errorf("table2 deadline d=%d: %v", d, err)
		}
		// Goal-driven: counting mode, on the kernel (MergeStatuses) for the
		// explosive rows unless a Full (paper-style) enumeration was
		// requested.
		gopt := env.opt()
		if !cfg.Full && d >= cfg.MemoiseFrom {
			gopt.MergeStatuses = true
			row.GoalMemoised = true
		}
		gres, err := explore.GoalCount(env.Cat, env.start(d), brandeis.EndTerm(), env.Major, env.pruners(), gopt)
		if err != nil {
			return nil, fmt.Errorf("table2 goal d=%d: %v", d, err)
		}
		row.GoalPaths = gres.Paths
		row.GoalGoalPaths = gres.GoalPaths
		row.GoalRuntime = gres.Elapsed
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable2 renders rows in the paper's Table 2 format.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Deadline-driven vs. goal-driven learning paths generation")
	fmt.Fprintf(w, "%-10s | %-28s | %s\n", "semesters", "Deadline-driven Paths", "Goal-driven Paths")
	fmt.Fprintf(w, "%-10s | %14s %13s | %14s %13s\n", "", "# of paths", "runtime", "# of paths", "runtime")
	for _, r := range rows {
		dPaths, dTime := "N/A", "N/A"
		if !r.DeadlineOOM {
			dPaths = fmt.Sprintf("%d", r.DeadlinePaths)
			dTime = fmtDur(r.DeadlineRuntime)
		}
		gTime := fmtDur(r.GoalRuntime)
		if r.GoalMemoised {
			gTime += "*"
		}
		fmt.Fprintf(w, "%-10d | %14s %13s | %14d %13s\n",
			r.Semesters, dPaths, dTime, r.GoalPaths, gTime)
	}
	for _, r := range rows {
		if r.GoalMemoised {
			fmt.Fprintln(w, "  * counted with status interning on the DAG counting kernel (identical path counts; runtime not comparable to full enumeration — rerun with -full)")
			break
		}
	}
}

// ---------------------------------------------------------------------
// Figure 4: runtime of the ranked learning-paths algorithm.

// Figure4Point is one (semesters, k) measurement.
type Figure4Point struct {
	Semesters int
	K         int
	Found     int
	Runtime   time.Duration
	Nodes     int64
}

// RunFigure4 measures top-k generation with the time-based ranking for
// every combination of the given semester counts and ks (paper: 6-8
// semesters, k up to 1000).
func RunFigure4(env *Env, semesters, ks []int) ([]Figure4Point, error) {
	var out []Figure4Point
	for _, d := range semesters {
		for _, k := range ks {
			res, err := explore.Ranked(env.Cat, env.start(d), brandeis.EndTerm(), env.Major,
				rank.Time{}, k, env.pruners(), env.opt())
			if err != nil {
				return nil, fmt.Errorf("figure4 d=%d k=%d: %v", d, k, err)
			}
			out = append(out, Figure4Point{
				Semesters: d, K: k, Found: len(res.Paths),
				Runtime: res.Elapsed, Nodes: res.Nodes,
			})
		}
	}
	return out, nil
}

// PrintFigure4 renders the Figure 4 series: one line per semester count,
// runtime per number of output paths.
func PrintFigure4(w io.Writer, points []Figure4Point) {
	fmt.Fprintln(w, "Figure 4: runtime for ranked learning paths algorithm (time-based ranking)")
	fmt.Fprintf(w, "%-10s %-10s %-10s %-13s %s\n", "semesters", "k", "# found", "runtime", "nodes expanded")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %-10d %-10d %-13s %d\n", p.Semesters, p.K, p.Found, fmtDur(p.Runtime), p.Nodes)
	}
}

func isTooLarge(err error) bool { return errors.Is(err, explore.ErrGraphTooLarge) }

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
