package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/server"
)

// Workload names.
const (
	wlBrowse = "browse-hot"
	wlPlan   = "plan-cold"
	wlCohort = "cohort-mixed"
)

var workloads = []string{wlBrowse, wlPlan, wlCohort}

// plan is everything one run sends, generated before timing starts.
type plan struct {
	// warm is issued once, untimed, before the window: every distinct
	// request of the browse pool, or (plan-cold) requests disjoint from
	// the timed stream.
	warm []request
	// stream is the interactive request sequence. A browse stream is
	// cycled; a plan-cold stream is never repeated.
	stream []request
	cycle  bool
	// jobs is the cohort-mixed job sequence, streamed on its own
	// connection during the window.
	jobs []cohortJob
	// probes are cohort jobs run alone after the window on the workloads
	// without cohort traffic, so the cohort metrics exist on every
	// workload (there they measure an otherwise idle server).
	probes []cohortJob
}

// Generation sizes. The pool size, the skew and the cohort job sizes
// are assumptions, not measured traffic: browsePool is large enough that
// the cache probe is not one hot entry and small enough that its answers
// fit well inside a tenant's cache share; zipfS is the classic
// popularity skew (students of one year share positions), giving the
// top session about a quarter of the traffic.
const (
	browsePool          = 40      // distinct browse sessions (× 4 cached endpoints)
	browseStream        = 1 << 12 // browse stream length before it cycles
	planPerSecond       = 6000    // plan-cold requests generated per timed second
	planWarm            = 200     // plan-cold warm-up requests (never timed)
	cohortJobsPerSecond = 40      // cohort-mixed jobs generated per timed second (about 11 run)
	probeJobs           = 20      // cohort probe jobs on the other workloads
	zipfS               = 1.1     // browse session popularity skew
	graphMaxPaths       = 1200    // goal-graph requests: bound on the tree's paths (body < 1 MiB)
	browseMaxPath       = 150     // browse sessions: tighter bound (below)
	planMaxPaths        = 100000  // plan-cold sessions: bound on the window's paths (bounded tail)
)

// distinct bounds the distinct answers one window can collect: every
// reply of a stream that never repeats, or a few per canonical request
// of a cycled one (computed replies differ in elapsedMs; replays repeat).
func (p *plan) distinct() int {
	if p.cycle {
		return 8 * len(p.warm)
	}
	return len(p.stream)
}

// buildPlan generates the run's inputs from the workload and seed.
func buildPlan(nav *coursenav.Navigator, workload string, seed int64, seconds int) (*plan, error) {
	switch workload {
	case wlBrowse:
		g := newGenerator(nav, seed, workload)
		p := browsePlan(g)
		p.probes = g.cohortJobs(probeJobs)
		return p, nil
	case wlPlan:
		g := newGenerator(nav, seed, workload)
		p := coldPlan(g, planPerSecond*seconds)
		p.probes = g.cohortJobs(probeJobs)
		return p, nil
	case wlCohort:
		g := newGenerator(nav, seed, workload)
		p := browsePlan(g)
		p.jobs = g.cohortJobs(cohortJobsPerSecond * seconds)
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// check runs the session's goal count on the generator's navigator: the
// window's total and goal-reaching path counts, used to keep every
// generated request inside the server's budgets.
func (g *generator) check(s session) (paths, goalPaths int64) {
	goal, err := g.nav.GoalCourses(s.q.Goal...)
	if err != nil {
		panic(err)
	}
	sum, err := g.nav.GoalPathsCountCtx(context.Background(), coursenav.Query{
		Completed: s.q.Completed, Start: s.q.Start, End: s.q.End,
		MaxPerTerm: s.q.MaxPerTerm, MaxNodes: server.DefaultNodeBudget,
	}, goal)
	if err != nil {
		panic(err)
	}
	return sum.Paths, sum.GoalPaths
}

// browsePlan draws a small pool of goal-reaching sessions on 2–3
// semester windows of at most browseMaxPath paths and a Zipf-skewed
// stream over it. Goal graphs make up most of the pool's cached bytes
// and grow with the window's paths, heavy-tailed (a 600-path window's
// graph is ~300 KB, a 150-path one's ~100 KB), so the bound keeps the
// pool well inside the cache and its bytes, and the server's heap,
// nearly the same from seed to seed. Every request of a
// session repeats in canonical form, so after warm-up nearly every reply
// is a cache hit; each stream entry is a client form of its own, and
// the stream cycles.
func browsePlan(g *generator) *plan {
	pool := make([]session, 0, browsePool)
	seen := map[string]bool{}
	for len(pool) < browsePool {
		walked := 1 + g.rng.Intn(6) // starts Spring 2012 … Fall 2014
		s := g.session(walked, 2+g.rng.Intn(2), 3, 1+g.rng.Intn(2))
		k := s.tenant + "#" + s.q.key(epRanked)
		if seen[k] {
			continue
		}
		if paths, goalPaths := g.check(s); goalPaths == 0 || paths > browseMaxPath {
			continue
		}
		seen[k] = true
		pool = append(pool, s)
	}
	p := &plan{cycle: true}
	for _, s := range pool {
		for ep := endpoint(0); ep < numEndpoints; ep++ {
			p.warm = append(p.warm, g.request(s, ep))
		}
	}
	zipf := rand.NewZipf(g.rng, zipfS, 1, uint64(len(pool)-1))
	p.stream = make([]request, browseStream)
	for i := range p.stream {
		p.stream[i] = g.request(pool[zipf.Uint64()], mixPattern[i%len(mixPattern)])
	}
	return p
}

// coldPlan draws n requests, all distinct in canonical form, from fresh
// sessions varying position, window (2–4 semesters), maxPerTerm (2–4)
// and goal (1–3 major courses). Sessions whose window exceeds
// planMaxPaths are redrawn, goal graphs are only requested on windows
// within graphMaxPaths, and most sessions have a reachable goal. Each
// checked session also yields cheaper variants — one course fewer per
// semester, one semester shorter, the other rankings — whose work the
// check bounds: their trees are subtrees of the checked one.
func coldPlan(g *generator, n int) *plan {
	var queues [numEndpoints][]request
	want := [numEndpoints]int{}
	for i := 0; i < n+planWarm; i++ {
		want[mixPattern[i%len(mixPattern)]]++
	}
	seen := map[string]bool{}
	push := func(r request) {
		if len(queues[r.ep]) < want[r.ep] && !seen[r.key] {
			seen[r.key] = true
			queues[r.ep] = append(queues[r.ep], r)
		}
	}
	short := func(eps ...endpoint) bool {
		for _, ep := range eps {
			if len(queues[ep]) < want[ep] {
				return true
			}
		}
		return false
	}
	type candidate struct {
		s                session
		keepUnreachable  bool
		paths, goalPaths int64
	}
	for short(epGoalCount, epRanked, epWhatIf, epGoalGraph) {
		// Candidates are drawn in order from the seeded source and
		// checked in parallel, so the result does not depend on timing.
		batch := make([]candidate, 0, 64)
		for len(batch) < cap(batch) {
			walked := 1 + g.rng.Intn(7)
			semesters := 2 + g.rng.Intn(3)
			if walked+semesters-1 > g.last.Sub(g.first) {
				continue
			}
			s := g.session(walked, semesters, 2+g.rng.Intn(3), 1+g.rng.Intn(3))
			batch = append(batch, candidate{s: s, keepUnreachable: g.rng.Intn(5) == 0})
		}
		parallel(len(batch), func(i int) { batch[i].paths, batch[i].goalPaths = g.check(batch[i].s) })
		for _, c := range batch {
			if c.paths > planMaxPaths || (c.goalPaths == 0 && !c.keepUnreachable) {
				continue
			}
			s := c.s
			for _, v := range variants(s) {
				push(g.request(v, epGoalCount))
				push(g.request(v, epWhatIf))
				if c.paths <= graphMaxPaths {
					push(g.request(v, epGoalGraph))
				}
			}
			for _, rk := range rankings {
				v := s
				v.q.Ranking = rk
				push(g.request(v, epRanked))
			}
			push(g.request(s, epOptions))
		}
	}
	for short(epOptions) {
		walked := 1 + g.rng.Intn(7)
		tn := g.tenant()
		pos := g.walk(walked, 3)
		push(g.request(session{tenant: tn, q: query{Completed: pos.completed, Start: pos.start.Label()}}, epOptions))
	}
	p := &plan{}
	var next [numEndpoints]int
	for i := 0; i < n+planWarm; i++ {
		ep := mixPattern[i%len(mixPattern)]
		r := queues[ep][next[ep]]
		next[ep]++
		if i < planWarm {
			p.warm = append(p.warm, r)
		} else {
			p.stream = append(p.stream, r)
		}
	}
	return p
}

// variants returns s and its cheaper forms: maxPerTerm one lower (down
// to 2) and the window one semester shorter (down to 2 semesters).
func variants(s session) []session {
	out := []session{s}
	if s.q.MaxPerTerm > 2 {
		v := s
		v.q.MaxPerTerm--
		out = append(out, v)
	}
	if mustTerm(s.q.End).Sub(mustTerm(s.q.Start)) > 1 {
		for _, v := range out {
			v.q.End = mustTerm(v.q.End).Prev().Label()
			out = append(out, v)
		}
	}
	return out
}

// parallel calls fn(0..n-1) on maxConns goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
