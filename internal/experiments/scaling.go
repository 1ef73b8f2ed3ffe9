package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/explore"
	"repro/internal/status"
)

// ScalingPoint measures goal-driven exploration on one synthetic catalog
// size.
type ScalingPoint struct {
	Courses     int           `json:"courses"`
	Paths       int64         `json:"paths"`
	GoalPaths   int64         `json:"goalPaths"`
	Nodes       int64         `json:"nodes"`
	Runtime     time.Duration `json:"runtimeNs"`
	PrunedTotal int64         `json:"prunedTotal"`
}

// RunScaling measures how goal-driven generation scales with catalog
// size — a question the paper's fixed 38-course dataset leaves open.
// Synthetic catalogs (internal/datagen) grow in course count while the
// degree requirement (3 core + 3 electives), window (6 semesters) and
// per-semester limit (m = 2) stay fixed, so the measured growth isolates
// the option-set blow-up: each added course widens Y and the per-node
// branching follows the paper's Σ C(|Y|, i) formula. Counting uses
// status interning — the DAG counting kernel — to keep the sweep
// tractable, so the nodes column counts distinct kernel statuses.
func RunScaling(sizes []int, seed int64) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, n := range sizes {
		p := datagen.Default()
		p.Courses = n
		p.Layers = 3
		p.Terms = 8
		p.OfferProb = 0.65
		p.Seed = seed
		cat, err := datagen.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("scaling n=%d: %v", n, err)
		}
		req, err := datagen.GenerateRequirement(cat, 3, 3)
		if err != nil {
			return nil, fmt.Errorf("scaling n=%d: %v", n, err)
		}
		start := status.New(cat, cat.FirstTerm(), bitset.New(cat.Len()))
		end := cat.FirstTerm().Add(6)
		opt := explore.Options{MaxPerTerm: 2, MergeStatuses: true}
		res, err := explore.GoalCount(cat, start, end, req,
			explore.PaperPruners(cat, req, 2), opt)
		if err != nil {
			return nil, fmt.Errorf("scaling n=%d: %v", n, err)
		}
		out = append(out, ScalingPoint{
			Courses:     n,
			Paths:       res.Paths,
			GoalPaths:   res.GoalPaths,
			Nodes:       res.Nodes,
			Runtime:     res.Elapsed,
			PrunedTotal: res.PrunedTotal(),
		})
	}
	return out, nil
}

// PrintScaling renders the sweep.
func PrintScaling(w io.Writer, points []ScalingPoint) {
	fmt.Fprintln(w, "Catalog-size scaling (goal-driven, 6 semesters, m=2, 3 core + 3 electives, interned counting)")
	fmt.Fprintf(w, "%-10s %-14s %-14s %-12s %-10s %s\n",
		"courses", "# of paths", "goal paths", "nodes", "pruned", "runtime")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %-14d %-14d %-12d %-10d %s\n",
			p.Courses, p.Paths, p.GoalPaths, p.Nodes, p.PrunedTotal, fmtDur(p.Runtime))
	}
}
