package main

// Seeded workload generation. Everything a run sends is produced here,
// before timing starts, from the workload name and the seed alone: equal
// seeds give byte-identical request lists and cohort jobs.
//
// Student positions come from the benchmark's own random walks over the
// public Navigator.FeasibleNow (students sit at population-level
// positions along shared trajectories), not from internal/transcript or
// cohort.Synthesize, so a rewrite of either cannot change the traffic.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"repro"
	"repro/internal/brandeis"
	"repro/internal/cohort"
	"repro/internal/term"
)

// endpoint is one kind of interactive request. The embedded UI
// (internal/server/ui.go) makes three calls: options, the countOnly goal
// count and ranked top-k. What-if and the materialised goal graph are
// API calls the UI does not make (the paper's what-if question and its
// path visualizer); they are the mix's minority.
type endpoint int

const (
	epOptions endpoint = iota
	epGoalCount
	epRanked
	epWhatIf
	epGoalGraph
	numEndpoints
)

var endpointNames = [numEndpoints]string{"options", "goal_count", "ranked", "whatif", "goal_graph"}

func (e endpoint) String() string { return endpointNames[e] }

// mixPattern is the interactive endpoint mix, stratified: every block of
// 20 requests holds exactly 6 options, 5 goal counts, 4 ranked, 3
// what-if and 2 goal graphs, so two seeds differ in content, not in mix.
// The weights are an assumption, not measured traffic (the repository
// has no usage logs): they fall in the order a UI session reaches the
// calls — options on every position change, then the count, then the
// ranked list — with the two non-UI calls a quarter of the traffic.
var mixPattern = []endpoint{
	epOptions, epGoalCount, epRanked, epOptions, epWhatIf,
	epGoalCount, epOptions, epGoalGraph, epRanked, epGoalCount,
	epOptions, epWhatIf, epRanked, epGoalCount, epOptions,
	epGoalGraph, epRanked, epGoalCount, epOptions, epWhatIf,
}

// tenantMix routes sessions: three registered tenants at 70/20/10,
// with a seventh of the top tenant's share on the bare default-tenant
// routes (tenant ""). All host the embedded catalog. The split is an
// assumption: one dominant institution and two smaller ones, so tenant
// routing and the per-tenant cache partitions all carry traffic.
var tenantMix = []struct {
	id     string
	weight int
}{{"alpha", 60}, {"", 10}, {"beta", 20}, {"gamma", 10}}

// registeredTenants are added at set-up through POST /api/v1/admin/tenants.
var registeredTenants = []string{"alpha", "beta", "gamma"}

// rankings cycles the ranked endpoint's ranking functions.
var rankings = []string{"time", "workload", "reliability"}

const (
	firstLabel = "Fall 2011" // first scheduled semester of the embedded catalog
	lastLabel  = "Fall 2015" // last scheduled semester
	rankedK    = 5
)

// query is a request's canonical form: course lists resolved, sorted and
// deduplicated. The oracle answers this form; the wire carries a client
// variant of it.
type query struct {
	Completed  []string
	Start, End string
	MaxPerTerm int
	Goal       []string
	Ranking    string
}

// request is one generated interactive request.
type request struct {
	ep     endpoint
	tenant string // "" = bare default-tenant route
	q      query
	key    string // canonical identity: endpoint and canonical query
	path   string // URL path, with the query string for GET
	body   []byte // client-form JSON body; nil for GET
}

func (q query) key(ep endpoint) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%s|%s", ep, strings.Join(q.Completed, ","),
		q.Start, q.End, q.MaxPerTerm, strings.Join(q.Goal, ","), q.Ranking)
}

// position is a student's place in the catalog: completed courses
// (canonical, sorted) and the next semester they plan from.
type position struct {
	completed []string
	start     term.Term
}

// generator draws positions, sessions and jobs from one seeded source.
type generator struct {
	nav     *coursenav.Navigator
	rng     *rand.Rand
	first   term.Term
	last    term.Term
	major   []string // core and elective courses: goal candidates
	isMajor map[string]bool
	core    []string
}

func newGenerator(nav *coursenav.Navigator, seed int64, salt string) *generator {
	h := int64(0)
	for _, c := range salt {
		h = h*131 + int64(c)
	}
	major := append(brandeis.CoreCourses(), brandeis.ElectiveCourses()...)
	isMajor := map[string]bool{}
	for _, c := range major {
		isMajor[c] = true
	}
	return &generator{
		nav:     nav,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + h)),
		first:   mustTerm(firstLabel),
		last:    mustTerm(lastLabel),
		major:   major,
		isMajor: isMajor,
		core:    brandeis.CoreCourses(),
	}
}

func mustTerm(label string) term.Term {
	t, err := term.Parse(term.TwoSeason, label)
	if err != nil {
		panic(err)
	}
	return t
}

// walk advances a fresh student from the first scheduled semester for
// the given number of semesters, electing 1..maxPer feasible courses
// each semester (none when nothing is feasible).
func (g *generator) walk(semesters, maxPer int) position {
	var completed []string
	t := g.first
	for i := 0; i < semesters; i++ {
		opts, err := g.nav.FeasibleNow(completed, t.Label())
		if err != nil {
			panic(err) // completed only ever holds catalog IDs
		}
		if len(opts) > 0 {
			k := 1 + g.rng.Intn(min(maxPer, len(opts)))
			for _, j := range g.rng.Perm(len(opts))[:k] {
				completed = append(completed, opts[j])
			}
		}
		t = t.Next()
	}
	sort.Strings(completed)
	return position{completed: completed, start: t}
}

// goal picks n distinct uncompleted courses from pool, sorted.
func (g *generator) goal(p position, pool []string, n int) []string {
	done := map[string]bool{}
	for _, c := range p.completed {
		done[c] = true
	}
	var out []string
	for _, j := range g.rng.Perm(len(pool)) {
		if len(out) == n {
			break
		}
		if !done[pool[j]] {
			out = append(out, pool[j])
		}
	}
	sort.Strings(out)
	return out
}

// session is one student's interactive context: a position, a goal, a
// planning window and the tenant serving them.
type session struct {
	tenant string
	q      query
}

func (g *generator) tenant() string {
	n := g.rng.Intn(100)
	for _, tm := range tenantMix {
		if n < tm.weight {
			return tm.id
		}
		n -= tm.weight
	}
	return tenantMix[0].id
}

// session draws a session whose window spans semesters (inclusive) from
// a position reached after walked semesters. The goal is drawn from the
// major courses the window can reach when per-semester limits are
// ignored, so most goals are reachable; when none is, any major course.
func (g *generator) session(walked, semesters, maxPer, goalN int) session {
	p := g.walk(walked, 3)
	end := p.start.Add(semesters - 1)
	pool := g.reachable(p, end)
	if len(pool) == 0 {
		pool = g.major
	}
	return session{
		tenant: g.tenant(),
		q: query{
			Completed:  p.completed,
			Start:      p.start.Label(),
			End:        end.Label(),
			MaxPerTerm: maxPer,
			Goal:       g.goal(p, pool, goalN),
			Ranking:    rankings[g.rng.Intn(len(rankings))],
		},
	}
}

// reachable lists the major courses some semester of [p.start, end]
// offers with prerequisites met, taking every earlier option: an
// over-approximation of what a plan within the window can complete.
func (g *generator) reachable(p position, end term.Term) []string {
	have := map[string]bool{}
	completed := append([]string(nil), p.completed...)
	for _, c := range completed {
		have[c] = true
	}
	var out []string
	for t := p.start; !t.After(end); t = t.Next() {
		opts, err := g.nav.FeasibleNow(completed, t.Label())
		if err != nil {
			panic(err)
		}
		for _, c := range opts {
			if !have[c] {
				have[c] = true
				out = append(out, c)
			}
		}
		completed = append(completed, opts...)
	}
	kept := out[:0]
	for _, c := range out {
		if g.isMajor[c] {
			kept = append(kept, c)
		}
	}
	sort.Strings(kept)
	return kept
}

// request renders the session's request for one endpoint in a fresh
// client form: course lists shuffled, IDs re-cased and padded at random,
// so the server's canonicalisation does real work on every request.
func (g *generator) request(s session, ep endpoint) request {
	q := s.q
	if ep != epRanked {
		q.Ranking = ""
	}
	if ep == epOptions {
		q.End, q.MaxPerTerm, q.Goal = "", 0, nil
	}
	r := request{ep: ep, tenant: s.tenant, q: q, key: q.key(ep)}
	prefix := "/api/v1"
	if s.tenant != "" {
		prefix += "/t/" + s.tenant
	}
	if ep == epOptions {
		// The options route resolves IDs exactly, so only order varies.
		ids := g.shuffled(q.Completed)
		v := url.Values{"term": {q.Start}}
		if len(ids) > 0 {
			v.Set("completed", strings.Join(ids, ","))
		}
		r.path = prefix + "/options?" + v.Encode()
		return r
	}
	body := wireExplore{
		Query: wireQuery{
			Completed:  g.scrambled(q.Completed),
			Start:      q.Start,
			End:        q.End,
			MaxPerTerm: q.MaxPerTerm,
			CountOnly:  ep == epGoalCount,
		},
		Goal: &wireGoal{Courses: g.scrambled(q.Goal)},
	}
	switch ep {
	case epRanked:
		body.Ranking, body.K = q.Ranking, rankedK
		r.path = prefix + "/explore/ranked"
	case epWhatIf:
		r.path = prefix + "/explore/whatif"
	default:
		r.path = prefix + "/explore/goal"
	}
	r.body = mustJSON(body)
	return r
}

func (g *generator) shuffled(ids []string) []string {
	out := make([]string, len(ids))
	for i, j := range g.rng.Perm(len(ids)) {
		out[i] = ids[j]
	}
	return out
}

func (g *generator) scrambled(ids []string) []string {
	out := g.shuffled(ids)
	for i, id := range out {
		switch g.rng.Intn(4) {
		case 0:
			id = strings.ToLower(id)
		case 1:
			id = " " + id + " "
		case 2:
			id = strings.ToLower(id[:1]) + id[1:]
		}
		out[i] = id
	}
	return out
}

// wireExplore mirrors the server's ExploreRequest JSON.
type wireExplore struct {
	Query   wireQuery `json:"query"`
	Goal    *wireGoal `json:"goal,omitempty"`
	Ranking string    `json:"ranking,omitempty"`
	K       int       `json:"k,omitempty"`
}

type wireQuery struct {
	Completed  []string `json:"completed,omitempty"`
	Start      string   `json:"start,omitempty"`
	End        string   `json:"end"`
	MaxPerTerm int      `json:"maxPerTerm,omitempty"`
	CountOnly  bool     `json:"countOnly,omitempty"`
}

type wireGoal struct {
	Courses []string `json:"courses"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// cohortJob is one POST /cohort job of a fixed sequence.
type cohortJob struct {
	kind    string // "explicit" (planning-heavy) or "synth" (synthesis-heavy)
	tenant  string
	req     wireCohort
	members int
}

// wireCohort mirrors the server's cohort request JSON.
type wireCohort struct {
	Scenario   cohort.Scenario `json:"scenario"`
	Members    []cohort.Member `json:"members,omitempty"`
	Synthesize *wireSynth      `json:"synthesize,omitempty"`
	Query      wireQuery       `json:"query"`
	Goal       wireGoal        `json:"goal"`
	Horizon    int             `json:"horizon,omitempty"`
	Workers    int             `json:"workers,omitempty"`
	Baseline   bool            `json:"baseline"`
}

type wireSynth struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

func (j cohortJob) path() string { return "/api/v1/t/" + j.tenant + "/cohort" }

// body renders the job; workers 1 asks for the serial member pipeline
// (the digest reference), 0 for the server default.
func (j cohortJob) body(workers int) []byte {
	r := j.req
	r.Workers = workers
	return mustJSON(r)
}

// Cohort job shapes, an assumption like the mix: small enough that many
// jobs finish inside one run (a 200-member explicit job of diverse
// positions takes seconds), and one goal per kind, so per-job medians
// are steady; the seed varies the cancelled offering, the members and
// the synthesis seed.
const (
	explicitMembers = 60
	synthMembers    = 600
)

var (
	explicitGoal = []string{"COSI 12B", "COSI 21A", "COSI 29A"}
	synthGoal    = []string{"COSI 21A", "COSI 29A"}
)

// cohortJobs draws n jobs alternating between explicit members at
// diverse walked positions and server-side synthesis. Each cancels one
// core course in one semester of the window, compares against the
// baseline catalog and probes one semester of delay.
func (g *generator) cohortJobs(n int) []cohortJob {
	jobs := make([]cohortJob, 0, n)
	for i := 0; i < n; i++ {
		end := g.last
		cancelTerm := end.Add(-g.rng.Intn(4))
		j := cohortJob{tenant: "alpha", req: wireCohort{
			Scenario: cohort.Scenario{Cancel: []cohort.Change{{
				Course: g.offeredCore(cancelTerm),
				Terms:  []string{cancelTerm.Label()},
			}}},
			Query:    wireQuery{End: end.Label(), MaxPerTerm: 3},
			Horizon:  1,
			Baseline: true,
		}}
		if i%2 == 0 {
			j.kind, j.members = "explicit", explicitMembers
			for m := 0; m < explicitMembers; m++ {
				p := g.walk(5+g.rng.Intn(3), 3) // starts Spring 2014 … Spring 2015
				j.req.Members = append(j.req.Members, cohort.Member{
					Student: fmt.Sprintf("J%02dM%02d", i, m), Completed: p.completed, Start: p.start.Label(),
				})
			}
			j.req.Goal.Courses = explicitGoal
		} else {
			j.kind, j.members = "synth", synthMembers
			j.req.Query.Start = g.first.Add(4).Label() // Fall 2013: windows of at most five semesters
			j.req.Synthesize = &wireSynth{N: synthMembers, Seed: g.rng.Int63n(1 << 40)}
			j.req.Goal.Courses = synthGoal
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// offeredCore picks a core course offered in t: a scenario may only
// cancel an existing offering.
func (g *generator) offeredCore(t term.Term) string {
	cat := g.nav.Catalog()
	offered := cat.OfferedIn(t)
	var ids []string
	for _, id := range g.core {
		if offered.Contains(cat.MustIndex(id)) {
			ids = append(ids, id)
		}
	}
	return ids[g.rng.Intn(len(ids))]
}
