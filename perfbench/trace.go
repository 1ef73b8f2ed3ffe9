package main

// The traced run: spans recorded around every call the benchmark makes
// (request, first byte, body; cohort job, first record) and around each
// layer call it replays after the timed window on a separate Navigator.
// Spans stay in memory and are written out when the run ends.
// Instrumentation inside the program is not part of this benchmark.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/cohort"
	"repro/internal/server"
	"repro/internal/term"
)

// span is one timed call. Spans of one request share Req; Parent is the
// causing span's ID, -1 for a root. Replayed layer calls run after the
// window, so they are logical children: they share the request's Req
// and parent but not its time interval.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// parents maps Req to the span its replayed layer calls hang under:
	// the request's first_byte span (the engine runs before the first
	// byte) or the cohort job's root.
	parents map[string]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), parents: map[string]int{}} }

// addLocked appends a span; t.mu must be held.
func (t *tracer) addLocked(req, name string, parent int, from, to time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: from.Sub(t.epoch).Nanoseconds(), End: to.Sub(t.epoch).Nanoseconds()})
	return id
}

// request records one interactive request: sent at t0, header at t1,
// last byte at t2.
func (t *tracer) request(idx int, ep string, t0, t1, t2 time.Time) {
	req := fmt.Sprintf("r%d", idx)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.addLocked(req, "request."+ep, -1, t0, t2)
	t.parents[req] = t.addLocked(req, "first_byte", root, t0, t1)
	t.addLocked(req, "body", root, t1, t2)
}

// job records one cohort job: posted at t0, first record at t1, stream
// end at t2. The first record is a milestone, not a stage, so it is a
// root of its own under the job's id; the job's replayed synthesis and
// planning are its children, and its self time is the emit remainder.
func (t *tracer) job(i int, t0, t1, t2 time.Time) {
	req := fmt.Sprintf("j%d", i)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parents[req] = t.addLocked(req, "cohort.job", -1, t0, t2)
	t.addLocked(req, "cohort.first_record", -1, t0, t1)
}

// replay records a replayed layer call as a logical child of its
// request: it shares the request's Req and parent, not its interval.
func (t *tracer) replay(req, name string, from, to time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.parents[req]
	if !ok {
		parent = -1
	}
	t.addLocked(req, name, parent, from, to)
}

// selfTimes returns, per span name, the mean duration and mean self
// time (duration minus the durations of the span's children) in ms.
func (t *tracer) selfTimes() map[string][3]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][3]float64{}
	for i, s := range t.spans {
		a := out[s.Name]
		a[0]++
		a[1] += float64(s.End-s.Start) / 1e6
		a[2] += float64(s.End-s.Start-child[i]) / 1e6
		out[s.Name] = a
	}
	for k, a := range out {
		out[k] = [3]float64{a[0], a[1] / a[0], a[2] / a[0]}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerReplay holds what the replays measured.
type layerReplay struct {
	engineMs    [numEndpoints][]float64
	engineByKey map[string]float64
	renderMs    []float64
	renderByKey map[string]float64
	statuses    []float64 // goal-count Summary.Nodes
	pruned      float64   // PrunedTime+PrunedAvail over goal counts
	nodes       float64   // Nodes over goal counts
	allocs      uint64
	calls       int

	synthMsPerMember []float64
	planMsPerMember  []float64
	emitMsPerMember  []float64
	unitsPerMember   []float64
	sharedHits       int64
	sharedUnits      int64
}

// Replay sizes: distinct requests per endpoint, and cohort jobs.
const (
	replayPerEndpoint = 150
	replayJobs        = 6
)

// replayRequests times the façade calls behind up to replayPerEndpoint
// distinct requests per endpoint of the window's reservoir, and
// Graph.WriteJSON for each goal graph.
func replayRequests(nav *coursenav.Navigator, p *plan, samples []sample, tr *tracer) *layerReplay {
	lr := &layerReplay{engineByKey: map[string]float64{}, renderByKey: map[string]float64{}}
	ctx := context.Background()
	var count [numEndpoints]int
	for i := range samples {
		r := &p.stream[samples[i].idx%len(p.stream)]
		if _, done := lr.engineByKey[r.key]; done || count[r.ep] >= replayPerEndpoint {
			continue
		}
		count[r.ep]++
		q := oracleQuery(r.q)
		goal, _ := nav.GoalCourses(r.q.Goal...) // checked by the oracle
		a0 := heapAllocs()
		t0 := time.Now()
		var g *coursenav.Graph
		switch r.ep {
		case epOptions:
			_, _ = nav.FeasibleNow(r.q.Completed, r.q.Start)
		case epGoalCount:
			sum, err := nav.GoalPathsCountCtx(ctx, q, goal)
			if err == nil {
				lr.statuses = append(lr.statuses, float64(sum.Nodes))
				lr.pruned += float64(sum.PrunedTime + sum.PrunedAvail)
				lr.nodes += float64(sum.Nodes)
			}
		case epRanked:
			_, _, _ = nav.TopKCtx(ctx, q, goal, r.q.Ranking, rankedK)
		case epWhatIf:
			_, _, _ = nav.CompareSelectionsCtx(ctx, q, goal)
		case epGoalGraph:
			g, _, _ = nav.GoalPathsCtx(ctx, q, goal)
		}
		t1 := time.Now()
		lr.allocs += heapAllocs() - a0
		lr.calls++
		ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
		lr.engineMs[r.ep] = append(lr.engineMs[r.ep], ms)
		lr.engineByKey[r.key] = ms
		req := fmt.Sprintf("r%d", samples[i].idx)
		tr.replay(req, "engine."+r.ep.String(), t0, t1)
		if g != nil {
			_ = g.WriteJSON(io.Discard, server.DefaultMaxResponseNodes)
			t2 := time.Now()
			lr.renderMs = append(lr.renderMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
			lr.renderByKey[r.key] = lr.renderMs[len(lr.renderMs)-1]
			tr.replay(req, "render.goal_graph", t1, t2)
		}
	}
	return lr
}

// replayJobs re-runs the cohort layers behind up to replayJobs streamed
// jobs: cohort.Synthesize with the job's inputs, then cohort.Runner over
// a SharedPlanner with the same members, the way the server wires them.
func (lr *layerReplay) replayJobs(nav *coursenav.Navigator, jobs []cohortJob, results []jobResult, tr *tracer) error {
	ctx := context.Background()
	cat := nav.Catalog()
	for n, res := range results {
		if n >= replayJobs {
			break
		}
		if res.errMsg != "" || res.members == 0 {
			continue
		}
		j := &jobs[res.job]
		req := fmt.Sprintf("j%d", res.job)
		members := j.req.Members
		synthMs := 0.0
		if j.req.Synthesize != nil {
			goal, err := nav.GoalCourses(j.req.Goal.Courses...)
			if err != nil {
				return err
			}
			start, err := term.Parse(cat.Calendar(), j.req.Query.Start)
			if err != nil {
				return err
			}
			end, err := term.Parse(cat.Calendar(), j.req.Query.End)
			if err != nil {
				return err
			}
			t0 := time.Now()
			members, err = cohort.Synthesize(cat, goal.Inner(), start, end, j.req.Query.MaxPerTerm,
				j.req.Synthesize.N, rand.New(rand.NewSource(j.req.Synthesize.Seed)))
			t1 := time.Now()
			if err != nil {
				return err
			}
			synthMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6
			lr.synthMsPerMember = append(lr.synthMsPerMember, synthMs/float64(len(members)))
			tr.replay(req, "cohort.synthesize", t0, t1)
		}
		sc := j.req.Scenario
		sc.Cancel = append([]cohort.Change(nil), sc.Cancel...)
		sc.Canonicalize(nav.CanonicalCourse)
		if sc.ReleasedThrough == "" {
			sc.ReleasedThrough = j.req.Query.Start
		}
		scenCat, err := sc.Apply(cat)
		if err != nil {
			return err
		}
		scenNav := nav
		if scenCat != cat {
			scenNav = coursenav.NewFromCatalog(scenCat)
		}
		makeGoal := func(nv *coursenav.Navigator) (coursenav.Goal, error) {
			return nv.GoalCourses(j.req.Goal.Courses...)
		}
		shared := &cohort.SharedPlanner{
			Inner:    &cohort.NavPlanner{Base: nav, Scenario: scenNav, MakeGoal: makeGoal, MaxPerTerm: j.req.Query.MaxPerTerm},
			Base:     nav,
			Scenario: scenNav,
			MakeGoal: makeGoal,
			Query: coursenav.Query{Start: j.req.Query.Start, End: j.req.Query.End,
				MaxPerTerm: j.req.Query.MaxPerTerm, MaxNodes: server.DefaultNodeBudget},
		}
		runner := cohort.Runner{Planner: shared, Opts: cohort.Options{
			End: j.req.Query.End, Horizon: j.req.Horizon, Baseline: j.req.Baseline,
			Calendar: cat.Calendar(), Workers: server.DefaultCohortWorkers,
		}}
		t0 := time.Now()
		sum, err := runner.Run(ctx, members, func(cohort.MemberRecord) error { return nil })
		t1 := time.Now()
		if err != nil {
			return err
		}
		planMs := float64(t1.Sub(t0).Nanoseconds()) / 1e6
		tr.replay(req, "cohort.plan", t0, t1)
		m := float64(len(members))
		lr.planMsPerMember = append(lr.planMsPerMember, planMs/m)
		totalMs := float64(res.total.Nanoseconds()) / 1e6
		lr.emitMsPerMember = append(lr.emitMsPerMember, (totalMs-synthMs-planMs)/m)
		lr.unitsPerMember = append(lr.unitsPerMember, float64(res.units)/m)
		lr.sharedHits += shared.Stats().Hits
		lr.sharedUnits += sum.Units
	}
	return nil
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
