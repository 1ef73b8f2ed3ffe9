// The cohort endpoint: batch scenario simulation on the unit-of-work
// layer (unit.go).
//
// POST /api/v1[/t/{tenant}]/cohort replans every member of a cohort
// against a catalog scenario and streams one NDJSON record per student
// — O(member) memory regardless of cohort size — with a trailing
// aggregate summary. Each member decomposes into counting (and
// optionally what-if) units executed through runUnit, so every unit is
// individually priced by the admission estimator, individually budgeted
// (RequestTimeout and brownout clamps apply per unit, not per job), and
// keyed into the tenant's result cache: members sharing a canonical
// sub-request coalesce with each other, within a job and across jobs.
// Counting units run on the shared substrate and keep a cohort-internal
// key space ("goal|substrate", "goalmh<h>|substrate"); replans run the
// whatif endpoint's own exec, and for an empty scenario use its key
// space ("whatif"), so a cohort-of-1 detail replan is byte-identical to
// the corresponding /api/v1/explore/whatif response and shares its
// cache entries — a tested invariant. Non-empty scenarios fold the
// scenario digest into the key space so deltas can never alias the
// live catalog.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro"
	"repro/internal/catalog"
	"repro/internal/cohort"
	"repro/internal/term"
	"repro/internal/transcript"
)

// maxCohortBodyBytes caps the cohort request body. Inline transcripts
// or explicit member lists for institutional cohorts are far larger
// than an interactive request, so the cap is its own, not decode()'s.
const maxCohortBodyBytes = 16 << 20

// Cohort job shape limits: honest 400s beat unbounded fan-out.
const (
	maxCohortMembers = 100_000
	maxCohortSamples = 64
	maxCohortHorizon = 16
	maxCohortWorkers = 16
)

// DefaultCohortWorkers is the member-pipeline width when neither the
// request nor Server.CohortWorkers says otherwise. Workers are admitted
// individually (and never hold exploration slots between units), so the
// default adds concurrency without bypassing admission control.
const DefaultCohortWorkers = 4

// synthesizeSpec asks the server to synthesise the cohort from seeds:
// n goal-reaching students generated over [query.start, query.end] and
// truncated to random mid-degree positions. Equal (catalog, goal,
// window, n, seed) synthesise byte-identical cohorts.
type synthesizeSpec struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed,omitempty"`
}

// cohortRequest is the POST /api/v1/cohort body. Exactly one member
// source — members, transcripts or synthesize — must be set.
type cohortRequest struct {
	// Scenario is the catalog delta to replan against; the zero value
	// replans against the live catalog.
	Scenario cohort.Scenario `json:"scenario"`
	// Members lists explicit replanning positions.
	Members []cohort.Member `json:"members,omitempty"`
	// Transcripts carries inline transcript text (the dump format of
	// internal/transcript); members derive from replaying them.
	Transcripts string `json:"transcripts,omitempty"`
	// Synthesize generates the cohort from seeds.
	Synthesize *synthesizeSpec `json:"synthesize,omitempty"`
	// Query templates every member's sub-exploration: end (required) is
	// the common deadline, maxPerTerm/avoid/workload bounds apply to all
	// members. completed/start/countOnly are per-member and rejected.
	Query QuerySpec `json:"query"`
	// Goal is the degree goal every member is replanned toward.
	Goal *GoalSpec `json:"goal,omitempty"`
	// Budget bounds each member's sub-explorations individually.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Horizon bounds the delay probe (semesters past end; default 4).
	Horizon int `json:"horizon,omitempty"`
	// Workers sets the member-pipeline width: how many members replan
	// concurrently (each unit still individually admitted). 0 means the
	// server default; 1 forces the serial pipeline. Output is identical
	// at any width.
	Workers int `json:"workers,omitempty"`
	// Baseline adds an unmodified-catalog count per member.
	Baseline bool `json:"baseline,omitempty"`
	// Detail embeds each member's what-if replan body in their record.
	Detail bool `json:"detail,omitempty"`
}

type cohortMemberRecord struct {
	Member cohort.MemberRecord `json:"member"`
}

type cohortSummaryRecord struct {
	Summary cohort.Summary `json:"summary"`
}

func (s *Server) handleCohort(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req cohortRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCohortBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	// Generation before navigator, as everywhere: results are never keyed
	// under a newer generation than the catalog that produced them.
	gen := t.gen()
	nav := t.navigator()
	cat := nav.Catalog()

	if req.Goal == nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing goal")
		return
	}
	if req.Query.CountOnly {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"query.countOnly does not apply to cohort: member units are counting runs already")
		return
	}
	if len(req.Query.Completed) > 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"query.completed does not apply to cohort: members carry their own completed sets")
		return
	}
	sources := 0
	if len(req.Members) > 0 {
		sources++
	}
	if strings.TrimSpace(req.Transcripts) != "" {
		sources++
	}
	if req.Synthesize != nil {
		sources++
	}
	if sources != 1 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"provide exactly one member source: members, transcripts or synthesize")
		return
	}
	if req.Horizon < 0 || req.Horizon > maxCohortHorizon {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"horizon must be in [0, %d]", maxCohortHorizon)
		return
	}
	if req.Workers < 0 || req.Workers > maxCohortWorkers {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"workers must be in [0, %d]", maxCohortWorkers)
		return
	}
	if req.Scenario.Samples < 0 || req.Scenario.Samples > maxCohortSamples {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"scenario.samples must be in [0, %d]", maxCohortSamples)
		return
	}

	// Canonicalize the shared template once; member fields are folded in
	// per unit. The same canonical forms derive cache keys, so identical
	// positions coalesce across members, jobs and interactive requests.
	tmpl := &ExploreRequest{Query: req.Query, Goal: req.Goal, Budget: req.Budget}
	canonicalize(nav, tmpl)
	req.Query, req.Goal = tmpl.Query, tmpl.Goal
	if req.Query.End == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing query.end (the cohort deadline)")
		return
	}
	if _, err := term.Parse(cat.Calendar(), req.Query.End); err != nil {
		s.writeNavErr(w, err)
		return
	}

	// Scenario catalogs: the delta applied once per job, Monte-Carlo
	// schedules sampled from the scenario catalog (deltas compose with
	// sampling).
	req.Scenario.Canonicalize(nav.CanonicalCourse)
	if req.Scenario.ReleasedThrough == "" {
		req.Scenario.ReleasedThrough = req.Query.Start
	}
	scenCat, err := req.Scenario.Apply(cat)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	scenNav := nav
	if scenCat != cat {
		scenNav = coursenav.NewFromCatalog(scenCat)
	}
	sampleCats, err := req.Scenario.SampleSchedules(scenCat)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	sampleNavs := make([]*coursenav.Navigator, len(sampleCats))
	for i, sc := range sampleCats {
		sampleNavs[i] = coursenav.NewFromCatalog(sc)
	}

	members, err := s.cohortMembers(nav, cat, &req)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	if len(members) > maxCohortMembers {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"cohort of %d exceeds the %d-member limit", len(members), maxCohortMembers)
		return
	}

	pl := &serverPlanner{
		s: s, t: t, gen: gen,
		scenNav:  scenNav,
		scenario: &req.Scenario,
		goalSpec: *req.Goal,
		template: req.Query,
		budget:   req.Budget,
	}
	// The job's counting units run on a shared substrate — one interned
	// DAG + tally memo per catalog variant, built across members — with
	// each execution still threaded through runUnit, so per-unit pricing,
	// budgets and the result cache apply to every unit. Replans
	// (path-shaped) run the whatif exec.
	shared := &cohort.SharedPlanner{
		Inner:    pl,
		Base:     nav,
		Scenario: scenNav,
		Samples:  sampleNavs,
		MakeGoal: func(nv *coursenav.Navigator) (coursenav.Goal, error) {
			return buildGoal(nv, *req.Goal)
		},
		Query:       s.query(req.Query, req.Budget),
		Unit:        pl.sharedUnit,
		HorizonUnit: pl.sharedHorizonUnit,
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.CohortWorkers
	}
	if workers <= 0 {
		workers = DefaultCohortWorkers
	}
	runner := cohort.Runner{
		Planner: shared,
		Opts: cohort.Options{
			End:      req.Query.End,
			Horizon:  req.Horizon,
			Baseline: req.Baseline,
			Detail:   req.Detail,
			Samples:  req.Scenario.Samples,
			Calendar: cat.Calendar(),
			Workers:  workers,
		},
		// Extra pipeline workers are admitted by probing the tenant quota
		// and the global pool (and releasing immediately — units acquire
		// their own slots inside runUnit): a saturated server runs the job
		// serially instead of amplifying the overload.
		AdmitWorker: func(ctx context.Context) (func(), bool) {
			relT, ok := t.acquireQuota()
			if !ok {
				return nil, false
			}
			relG, ok := s.acquire()
			if !ok {
				relT()
				return nil, false
			}
			return func() { relG(); relT() }, true
		},
	}
	// The job runs under the client connection's context: mid-stream
	// cancellation stops the in-flight unit within one engine step and
	// aborts the run. Budgets and RequestTimeout apply per UNIT (inside
	// the planner), not to the job — a 10k-member job legitimately
	// outlives any single exploration's cap.
	sw := s.newStreamWriter(w)
	sum, runErr := runner.Run(r.Context(), members, func(rec cohort.MemberRecord) error {
		return sw.record(cohortMemberRecord{Member: rec})
	})
	if rec, ok := w.(*statusRecorder); ok {
		rec.cohort = true
		rec.cohortMembers = int64(sum.Members)
		rec.cohortCoalesced = sum.Coalesced
		sst := shared.Stats()
		rec.cohortSharedHits = sst.Hits
		rec.cohortDPReused = sst.DPReused
		rec.cohortCancelled = runErr != nil &&
			(errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) || sw.err != nil)
		rec.window = req.Query.Start + " → " + req.Query.End
		rec.paths = int64(sum.Members)
	}
	s.finishStream(w, sw, runErr, cohortSummaryRecord{Summary: sum})
}

// cohortMembers resolves the request's member source into canonical
// members: completed sets resolved/sorted/deduplicated and starts
// trimmed, so equal positions produce equal unit cache keys.
func (s *Server) cohortMembers(nav *coursenav.Navigator, cat *catalog.Catalog, req *cohortRequest) ([]cohort.Member, error) {
	var members []cohort.Member
	switch {
	case len(req.Members) > 0:
		members = req.Members
		for i := range members {
			canonCourseSet(nav, &members[i].Completed)
			members[i].Start = strings.TrimSpace(members[i].Start)
			if members[i].Start == "" {
				return nil, fmt.Errorf("member %d (%s) missing start", i, members[i].Student)
			}
			if members[i].Student == "" {
				members[i].Student = fmt.Sprintf("M%04d", i+1)
			}
		}
	case strings.TrimSpace(req.Transcripts) != "":
		trs, err := transcript.Parse(strings.NewReader(req.Transcripts), cat.Calendar())
		if err != nil {
			return nil, err
		}
		members, err = cohort.FromTranscripts(nav.Catalog(), trs, req.Query.MaxPerTerm)
		if err != nil {
			return nil, err
		}
	default:
		sp := req.Synthesize
		if sp.N <= 0 || sp.N > maxCohortMembers {
			return nil, fmt.Errorf("synthesize.n must be in [1, %d]", maxCohortMembers)
		}
		if req.Query.Start == "" {
			return nil, fmt.Errorf("synthesize requires query.start (the generation window's first semester)")
		}
		start, err := term.Parse(cat.Calendar(), req.Query.Start)
		if err != nil {
			return nil, err
		}
		end, err := term.Parse(cat.Calendar(), req.Query.End)
		if err != nil {
			return nil, err
		}
		goal, err := buildGoal(nav, *req.Goal)
		if err != nil {
			return nil, err
		}
		members, err = cohort.Synthesize(nav.Catalog(), goal.Inner(), start, end,
			req.Query.MaxPerTerm, sp.N, rand.New(rand.NewSource(sp.Seed)))
		if err != nil {
			return nil, err
		}
	}
	return members, nil
}

// serverPlanner threads cohort units through the serving pipeline:
// each unit is an ExploreRequest in the same canonical form the
// interactive handlers produce, probed against the cache and otherwise
// run through runUnit (coalesce → admission → exec). Variant selection maps to endpoint key spaces: the
// base catalog and an empty scenario use the unit's base space, while a
// non-empty delta and each Monte-Carlo sample get digest-suffixed
// spaces of their own.
type serverPlanner struct {
	s        *Server
	t        *tenantState
	gen      uint64
	scenNav  *coursenav.Navigator
	scenario *cohort.Scenario
	goalSpec GoalSpec
	template QuerySpec
	budget   *BudgetSpec

	goalOnce sync.Once // builds goal/goalErr on the first replan that runs
	goal     coursenav.Goal
	goalErr  error
}

// scenGoal returns the job's goal on the scenario catalog, built once
// for all replans (the parallel pipeline shares the planner).
func (p *serverPlanner) scenGoal() (coursenav.Goal, error) {
	p.goalOnce.Do(func() { p.goal, p.goalErr = buildGoal(p.scenNav, p.goalSpec) })
	return p.goal, p.goalErr
}

// keySpace resolves a cohort variant to its endpoint key space; base
// names the unit's space on the live catalog. Variants reach the unit
// wrappers already validated by SharedPlanner.
func (p *serverPlanner) keySpace(v cohort.Variant, base string) string {
	switch {
	case v.Kind == cohort.KindSample:
		return base + "|cohort:" + p.scenario.SampleKey(v.Sample)
	case v.Kind == cohort.KindScenario && !p.scenario.Empty():
		return base + "|cohort:" + p.scenario.Digest()
	}
	return base
}

// unitReq folds one member into the job's canonical template. The
// template and member are already canonical, so the result marshals to
// the same blob an interactive request with these fields would.
func (p *serverPlanner) unitReq(m cohort.Member, end string, countOnly bool) *ExploreRequest {
	qs := p.template
	qs.Completed = m.Completed
	qs.Start = m.Start
	qs.End = end
	qs.CountOnly = countOnly
	goal := p.goalSpec
	return &ExploreRequest{Query: qs, Goal: &goal, Budget: p.budget}
}

// run executes one unit under the job's tenant and snapshot generation:
// a cache hit replays, anything else goes through runUnit.
func (p *serverPlanner) run(ctx context.Context, endpoint string, req *ExploreRequest, exec unitExec) (unitResult, error) {
	k := p.t.unitKey(p.gen, endpoint, req)
	if k.cache != nil {
		if ent, ok := k.cache.Get(k.key); ok {
			return unitResult{unitRun: unitRun{ent: ent}, how: "hit"}, nil
		}
	}
	return p.s.runUnit(ctx, p.t, k, req, false, exec)
}

// substrateBody is the cached body of a shared-substrate counting unit:
// GoalPaths[h] counts goal paths by deadline end+h (one element for a
// single-deadline unit).
type substrateBody struct {
	GoalPaths []int64 `json:"goalPaths"`
}

// sharedUnit threads one shared-substrate counting execution through
// runUnit, so the unit is priced, budgeted and cached like any other.
// Its key space ("goal|substrate") is cohort-internal: the substrate
// knows the unit's goal-path count but not the tallies an interactive
// countOnly body reports, so its entries must never answer an
// interactive request. Cohort units still coalesce with each other,
// within a job and across jobs.
func (p *serverPlanner) sharedUnit(ctx context.Context, m cohort.Member, end string, v cohort.Variant, exec cohort.CountExec) (cohort.CountResult, error) {
	req := p.unitReq(m, end, true)
	res, err := p.run(ctx, p.keySpace(v, "goal|substrate"), req, func(ctx context.Context) (unitRun, error) {
		sc, err := exec(ctx)
		if err != nil {
			return unitRun{}, err
		}
		return jsonRun(req.Query, substrateBody{GoalPaths: []int64{sc.GoalPaths}}, sc.GoalPaths, "")
	})
	if err != nil {
		return cohort.CountResult{}, err
	}
	return cohort.CountResult{GoalPaths: res.ent.Paths, Reused: res.how != "miss"}, nil
}

// sharedHorizonUnit is sharedUnit's multi-deadline counterpart, keyed
// under "goalmh<h>|substrate".
func (p *serverPlanner) sharedHorizonUnit(ctx context.Context, m cohort.Member, end string, horizon int, v cohort.Variant, exec cohort.HorizonExec) (cohort.HorizonCounts, error) {
	req := p.unitReq(m, end, true)
	res, err := p.run(ctx, p.keySpace(v, "goalmh"+strconv.Itoa(horizon)+"|substrate"), req, func(ctx context.Context) (unitRun, error) {
		sc, err := exec(ctx)
		if err != nil {
			return unitRun{}, err
		}
		return jsonRun(req.Query, substrateBody{GoalPaths: sc.GoalPaths}, sc.GoalPaths[0], "")
	})
	if err != nil {
		return cohort.HorizonCounts{}, err
	}
	var body substrateBody
	if err := json.Unmarshal(res.ent.Body, &body); err != nil {
		return cohort.HorizonCounts{}, err
	}
	return cohort.HorizonCounts{GoalPaths: body.GoalPaths, Reused: res.how != "miss"}, nil
}

// Replan implements cohort.Replanner: the member's what-if unit against
// the scenario catalog, run by the interactive whatif endpoint's own
// exec (whatIfRun). For an empty scenario the unit shares the "whatif"
// key space in both directions.
func (p *serverPlanner) Replan(ctx context.Context, m cohort.Member, end string) (cohort.Replan, error) {
	req := p.unitReq(m, end, false)
	res, err := p.run(ctx, p.keySpace(cohort.Variant{Kind: cohort.KindScenario}, "whatif"), req, func(ctx context.Context) (unitRun, error) {
		goal, err := p.scenGoal()
		if err != nil {
			return unitRun{}, err
		}
		return p.s.whatIfRun(ctx, p.scenNav, goal, req)
	})
	if err != nil {
		return cohort.Replan{}, err
	}
	return cohort.Replan{Body: res.ent.Body, Reused: res.how != "miss"}, nil
}
