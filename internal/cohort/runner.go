package cohort

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/term"
)

// VariantKind selects which catalog a unit of work runs against.
type VariantKind int

const (
	// KindScenario is the scenario catalog (the delta applied) — the
	// default variant every member is replanned under.
	KindScenario VariantKind = iota
	// KindBase is the unmodified catalog, for baseline comparison.
	KindBase
	// KindSample is one Monte-Carlo-sampled schedule (Variant.Sample
	// picks which).
	KindSample
)

// Variant addresses one catalog variant of the scenario.
type Variant struct {
	Kind   VariantKind
	Sample int
}

// CountResult is the outcome of one counting unit: the member's
// goal-reaching path tally to the given deadline.
type CountResult struct {
	GoalPaths int64
	// Stopped names why the count ended early (budget clamp); the tally
	// is then a lower bound.
	Stopped string
	// Reused reports the unit was served without recomputation — a
	// result-cache hit or a flight coalesced with an identical unit.
	Reused bool
}

// HorizonCounts is the outcome of one multi-deadline counting unit:
// the member's goal-path tally under every deadline in [end, end+h].
type HorizonCounts struct {
	// GoalPaths[d] is the goal-path count under deadline end+d semesters
	// (d = 0 is the on-time count).
	GoalPaths []int64
	// Stopped names why the count ended early; the tallies are then
	// lower bounds, so a zero entry no longer proves absence.
	Stopped string
	// Reused reports the unit was served without recomputation.
	Reused bool
}

// Replan is the outcome of one what-if unit: the rendered selection
// comparison for a member's next semester, byte-identical to the
// interactive whatif endpoint's response body.
type Replan struct {
	Body   []byte
	Reused bool
}

// Planner executes cohort units of work. Implementations decide the
// execution substrate: the server routes units through its cache/
// admission pipeline, NavPlanner runs façade calls directly. A unit
// error fails that member (recorded, the run continues) unless it is
// the context's own cancellation, which aborts the whole run.
// Implementations must be safe for concurrent use when the run is
// parallel (Options.Workers > 1).
type Planner interface {
	// Count tallies the member's goal-reaching paths from their start
	// through end against the variant's catalog.
	Count(ctx context.Context, m Member, end string, v Variant) (CountResult, error)
	// CountHorizons tallies the member's goal-reaching paths under every
	// deadline in [end, end+horizon] as ONE unit of work (the engine's
	// multi-deadline query) — the delay probe's single sub-exploration.
	CountHorizons(ctx context.Context, m Member, end string, horizon int, v Variant) (HorizonCounts, error)
	Replanner
}

// Replanner executes a Planner's what-if units alone — all a
// SharedPlanner delegates, since its counting runs on the substrate.
type Replanner interface {
	// Replan scores the member's next-semester selections against the
	// scenario catalog (the interactive what-if question, batch form).
	Replan(ctx context.Context, m Member, end string) (Replan, error)
}

// Options configures a cohort run.
type Options struct {
	// End is the deadline every member is replanned against.
	End string
	// Horizon is how many semesters past End to probe when a member has
	// no on-time path, bounding the delay measurement (default
	// DefaultHorizon). A member with no path within the horizon is
	// stranded.
	Horizon int
	// Baseline additionally counts each member's paths under the
	// unmodified catalog, so records carry scenario-vs-base deltas.
	Baseline bool
	// Detail embeds each member's scenario replan (the what-if body) in
	// their record.
	Detail bool
	// Samples is the Monte-Carlo sample count (0 = no reliability).
	Samples int
	// Workers bounds the member pipeline's parallelism (≤ 1 = serial).
	// Records are still emitted in member order — a reorder window holds
	// at most ~2×Workers finished records — and the NDJSON output is
	// byte-identical to a serial run's. The Planner must be safe for
	// concurrent use.
	Workers int
	// Calendar parses End and steps the delay probe (default
	// term.TwoSeason).
	Calendar *term.Calendar
}

// DefaultHorizon bounds the delay probe when Options.Horizon is unset.
const DefaultHorizon = 4

// MemberRecord is one streamed per-student result.
type MemberRecord struct {
	Student string `json:"student"`
	// GoalPaths is the member's goal-reaching path count by End under
	// the scenario.
	GoalPaths int64 `json:"goalPaths"`
	// Baseline is the same count under the unmodified catalog (present
	// only when the run compares baselines).
	Baseline *int64 `json:"baseline,omitempty"`
	// Affected: the scenario changed this member's outlook — a delay, a
	// stranding, or a different path count than baseline.
	Affected bool `json:"affected"`
	// Delay is the extra semesters past End until a goal path exists
	// (0 = on time).
	Delay int `json:"delay"`
	// Stranded: no goal path exists within the probe horizon.
	Stranded bool `json:"stranded,omitempty"`
	// Reliability is the fraction of sampled schedules under which the
	// member still reaches the goal by End (present only when sampling).
	Reliability *float64 `json:"reliability,omitempty"`
	// Replan is the member's what-if comparison body (detail runs only).
	Replan json.RawMessage `json:"replan,omitempty"`
	// Stopped names a budget clamp on the member's scenario count; the
	// tallies are then lower bounds.
	Stopped string `json:"stopped,omitempty"`
	// Error records a failed unit (shed by admission, bad window); the
	// member's other fields are then partial.
	Error string `json:"error,omitempty"`
}

// Summary is the trailing aggregate of a cohort run. Only these
// accumulators are held across members — the runner's memory is O(one
// member) serially, O(reorder window) in parallel, never O(cohort).
type Summary struct {
	Members  int `json:"members"`
	Affected int `json:"affected"`
	Delayed  int `json:"delayed"`
	Stranded int `json:"stranded"`
	Errors   int `json:"errors"`
	// DelayHistogram[d-1] counts members delayed exactly d semesters.
	DelayHistogram []int `json:"delayHistogram,omitempty"`
	// MeanDelay averages over delayed members only.
	MeanDelay float64 `json:"meanDelay"`
	// MeanReliability averages member reliability (sampling runs only).
	MeanReliability *float64 `json:"meanReliability,omitempty"`
	// Units counts sub-explorations issued; Coalesced how many of them
	// were served without recomputation (cache hit or coalesced flight)
	// — the measure of how much work member overlap saved.
	Units     int64 `json:"units"`
	Coalesced int64 `json:"coalesced"`
}

// Runner drives a cohort run: each member replanned as sub-explorations
// through the Planner, one record emitted per member as soon as it is
// decided, aggregates accumulated along the way.
type Runner struct {
	Planner Planner
	Opts    Options
	// AdmitWorker, when set, gates each parallel worker beyond the first:
	// the runner probes it once per extra worker at pool start and sizes
	// the pool to how many probes succeed (release is called immediately
	// — workers never HOLD an admission slot, since every unit they issue
	// is admitted individually by the Planner; holding would deadlock
	// against those per-unit acquires). The server wires this to its
	// admission controller and per-tenant quota; nil admits all workers.
	AdmitWorker func(ctx context.Context) (release func(), ok bool)
}

// memberStats carries one member's unit accounting from the computation
// to the (serialised) summary accumulation.
type memberStats struct {
	units, coalesced int64
}

// runAgg holds the mean accumulators finalised after the last member.
type runAgg struct {
	delayTotal int
	relTotal   float64
	relMembers int
}

// Run replans every member, calling emit once per member in member
// order, and returns the aggregate summary. Processing is strictly
// streaming: no per-member state survives its emit call (a parallel run
// holds at most a small reorder window of finished records). A context
// cancellation or an emit error aborts the run (the summary then covers
// the members processed so far); per-member unit failures are recorded
// on the member's record and do not stop the run.
func (r *Runner) Run(ctx context.Context, members []Member, emit func(MemberRecord) error) (Summary, error) {
	cal := r.Opts.Calendar
	if cal == nil {
		cal = term.TwoSeason
	}
	horizon := r.Opts.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	end, err := term.Parse(cal, r.Opts.End)
	if err != nil {
		return Summary{}, fmt.Errorf("cohort: end: %v", err)
	}
	sum := Summary{DelayHistogram: make([]int, horizon)}
	var agg runAgg

	workers := r.Opts.Workers
	if workers > len(members) {
		workers = len(members)
	}
	if workers > 1 {
		workers = r.admitPool(ctx, workers)
	}
	if workers > 1 {
		err = r.runParallel(ctx, members, emit, end, horizon, workers, &sum, &agg)
	} else {
		err = r.runSerial(ctx, members, emit, end, horizon, &sum, &agg)
	}
	if sum.Delayed > 0 {
		sum.MeanDelay = float64(agg.delayTotal) / float64(sum.Delayed)
	}
	if agg.relMembers > 0 {
		mr := agg.relTotal / float64(agg.relMembers)
		sum.MeanReliability = &mr
	}
	return sum, err
}

// admitPool sizes the worker pool: the first worker rides on the
// already-admitted request; each extra one needs a successful
// AdmitWorker probe.
func (r *Runner) admitPool(ctx context.Context, want int) int {
	if r.AdmitWorker == nil {
		return want
	}
	n := 1
	for n < want {
		release, ok := r.AdmitWorker(ctx)
		if !ok {
			break
		}
		release()
		n++
	}
	return n
}

func (r *Runner) runSerial(ctx context.Context, members []Member, emit func(MemberRecord) error, end term.Term, horizon int, sum *Summary, agg *runAgg) error {
	for i := range members {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, st, err := r.member(ctx, members[i], end, horizon)
		if err != nil {
			// A cancelled context fails every remaining unit instantly;
			// abort instead of emitting one error record per member. The
			// units already issued still count.
			sum.Units += st.units
			sum.Coalesced += st.coalesced
			return err
		}
		absorb(sum, agg, rec, st)
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// memberFuture is one member's slot in the parallel reorder window: the
// producer enqueues it (in member order) before handing the member to a
// worker, and the consumer blocks on done, so emits happen strictly in
// member order no matter which worker finishes first.
type memberFuture struct {
	m    Member
	rec  MemberRecord
	st   memberStats
	err  error
	done chan struct{}
}

func (r *Runner) runParallel(ctx context.Context, members []Member, emit func(MemberRecord) error, end term.Term, horizon, workers int, sum *Summary, agg *runAgg) error {
	pctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // after cancel (LIFO): unblock the pool, then join it
	defer cancel()

	// The futures channel IS the reorder window: its capacity bounds how
	// far computation may run ahead of the in-order consumer, so memory
	// stays O(window) however uneven the members are.
	futures := make(chan *memberFuture, 2*workers)
	jobs := make(chan *memberFuture)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		defer close(futures)
		for i := range members {
			f := &memberFuture{m: members[i], done: make(chan struct{})}
			select {
			case futures <- f:
			case <-pctx.Done():
				return
			}
			select {
			case jobs <- f:
			case <-pctx.Done():
				// Already visible to the consumer; resolve it so the
				// in-order drain cannot block on an unassigned member.
				f.err = pctx.Err()
				close(f.done)
				return
			}
		}
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range jobs {
				f.rec, f.st, f.err = r.member(pctx, f.m, end, horizon)
				close(f.done)
			}
		}()
	}

	for f := range futures {
		<-f.done
		if f.err != nil {
			sum.Units += f.st.units
			sum.Coalesced += f.st.coalesced
			return f.err
		}
		absorb(sum, agg, f.rec, f.st)
		if err := emit(f.rec); err != nil {
			return err
		}
	}
	return nil
}

// absorb folds one finished member into the aggregates. Runs on the
// emitting goroutine only, in member order — the summary is identical
// whatever the worker count.
func absorb(sum *Summary, agg *runAgg, rec MemberRecord, st memberStats) {
	sum.Units += st.units
	sum.Coalesced += st.coalesced
	sum.Members++
	if rec.Error != "" {
		sum.Errors++
	}
	if rec.Affected {
		sum.Affected++
	}
	if rec.Stranded {
		sum.Stranded++
	}
	if rec.Delay > 0 {
		sum.Delayed++
		sum.DelayHistogram[rec.Delay-1]++
		agg.delayTotal += rec.Delay
	}
	if rec.Reliability != nil {
		agg.relTotal += *rec.Reliability
		agg.relMembers++
	}
}

// member computes one member's record. The returned error is non-nil
// only for the context's own cancellation (the caller aborts the run);
// unit failures land in the record's Error field instead.
func (r *Runner) member(ctx context.Context, m Member, end term.Term, horizon int) (MemberRecord, memberStats, error) {
	var st memberStats
	rec := MemberRecord{Student: m.Student}
	fail := func(err error) {
		if rec.Error == "" {
			rec.Error = err.Error()
		}
	}
	count := func(e term.Term, v Variant) (CountResult, bool) {
		c, err := r.Planner.Count(ctx, m, e.Label(), v)
		st.units++
		if err != nil {
			fail(err)
			return c, false
		}
		if c.Reused {
			st.coalesced++
		}
		return c, true
	}
	scen, ok := count(end, Variant{Kind: KindScenario})
	if ok {
		rec.GoalPaths = scen.GoalPaths
		rec.Stopped = scen.Stopped
		if r.Opts.Baseline {
			if base, bok := count(end, Variant{Kind: KindBase}); bok {
				b := base.GoalPaths
				rec.Baseline = &b
			}
		}
		if scen.GoalPaths == 0 && rec.Error == "" {
			// No on-time path: ONE multi-deadline unit probes every
			// deadline in (end, end+horizon] for the first semester a
			// path reappears; none within the horizon means the member is
			// stranded by the scenario. A failed or clamped probe proves
			// nothing, so stranded stays unset then.
			hc, err := r.Planner.CountHorizons(ctx, m, end.Label(), horizon, Variant{Kind: KindScenario})
			st.units++
			switch {
			case err != nil:
				fail(err)
			default:
				if hc.Reused {
					st.coalesced++
				}
				for d := 1; d <= horizon && d < len(hc.GoalPaths); d++ {
					if hc.GoalPaths[d] > 0 {
						rec.Delay = d
						break
					}
				}
				if rec.Delay == 0 && hc.Stopped == "" {
					rec.Stranded = true
				}
			}
		}
		if r.Opts.Samples > 0 && rec.Error == "" {
			reach, n := 0, 0
			for i := 0; i < r.Opts.Samples; i++ {
				c, sok := count(end, Variant{Kind: KindSample, Sample: i})
				if !sok {
					break
				}
				n++
				if c.GoalPaths > 0 {
					reach++
				}
			}
			if n > 0 {
				rel := float64(reach) / float64(n)
				rec.Reliability = &rel
			}
		}
		if r.Opts.Detail && rec.Error == "" {
			rp, err := r.Planner.Replan(ctx, m, r.Opts.End)
			st.units++
			if err != nil {
				fail(err)
			} else {
				rec.Replan = json.RawMessage(bytes.TrimSpace(rp.Body))
				if rp.Reused {
					st.coalesced++
				}
			}
		}
		rec.Affected = rec.Stranded || rec.Delay > 0 ||
			(rec.Baseline != nil && *rec.Baseline != rec.GoalPaths)
	}
	if err := ctx.Err(); err != nil {
		return rec, st, err
	}
	return rec, st, nil
}
