// Package coursenav is the public API of the CourseNavigator
// reproduction: an interactive learning-path exploration service after
// Li, Papaemmanouil and Koutrika, "CourseNavigator: Interactive Learning
// Path Exploration" (ExploreDB 2016).
//
// A Navigator wraps a course catalog (course set C, prerequisite
// conditions Q, schedules S) and answers the paper's three exploration
// queries for a student's enrollment status:
//
//   - Deadline: every learning path up to an end semester (Algorithm 1).
//   - GoalPaths: the paths meeting a goal requirement — a set of desired
//     courses, a boolean expression, or a counted degree requirement —
//     generated with the time-based and course-availability pruning
//     strategies of §4.2.
//   - TopK: the k best goal paths under the time, workload or reliability
//     ranking of §4.3, via best-first search.
//
// Construct a Navigator from the embedded Brandeis-like evaluation
// dataset (Brandeis), from catalog JSON (NewFromJSON), or from raw
// registrar dumps (NewFromRegistrarDump). See examples/ for complete
// programs.
package coursenav

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/integrity"
	"repro/internal/rank"
	"repro/internal/registrar"
	"repro/internal/sched"
	"repro/internal/status"
	"repro/internal/term"
	"repro/internal/transcript"
)

// Navigator is the exploration service over one course catalog.
type Navigator struct {
	cat  *catalog.Catalog
	prob rank.OfferingProb // reliability estimator; nil until configured
}

// Brandeis returns a Navigator over the embedded 38-course evaluation
// dataset (paper §5.1) together with the CS-major goal ("7 core courses
// and 5 elective courses").
func Brandeis() (*Navigator, Goal) {
	cat := brandeis.Catalog()
	major, err := brandeis.Major(cat)
	if err != nil {
		panic(err) // embedded data is validated by tests
	}
	return &Navigator{cat: cat}, Goal{inner: major}
}

// NewFromCatalog wraps an already-built catalog. It is module-internal
// plumbing (the signature names an internal type): cohort scenario
// application builds delta catalogs — a cancelled course, a revised
// schedule, a Monte-Carlo offering sample — and serves explorations over
// them through the ordinary Navigator surface.
func NewFromCatalog(cat *catalog.Catalog) *Navigator {
	return &Navigator{cat: cat}
}

// Catalog exposes the navigator's underlying catalog for module-internal
// callers (cohort construction parses transcripts and synthesises members
// against it). The catalog is immutable once built.
func (n *Navigator) Catalog() *catalog.Catalog { return n.cat }

// BrandeisMajor rebuilds the embedded CS-major goal against this
// navigator's catalog. Goals are catalog-bound, so a scenario variant of
// the embedded catalog (a cancelled course, a sampled schedule) needs
// its own major goal; it errors when the catalog lacks the major's
// courses.
func (n *Navigator) BrandeisMajor() (Goal, error) {
	major, err := brandeis.Major(n.cat)
	if err != nil {
		return Goal{}, err
	}
	return Goal{inner: major}, nil
}

// NewFromJSON builds a Navigator from a catalog JSON document (an array
// of course specs; see Navigator.WriteCatalogJSON for the schema).
func NewFromJSON(r io.Reader) (*Navigator, error) {
	cat, err := catalog.ReadJSON(term.TwoSeason, r)
	if err != nil {
		return nil, err
	}
	return &Navigator{cat: cat}, nil
}

// NewFromRegistrarDump builds a Navigator from raw registrar text: a
// catalog dump (course/title/description/workload blocks, prerequisites
// and "usually offered" phrases extracted by the back-end parsers of
// paper §3) and an optional final-schedule record file ("COURSE | TERM"
// lines) that overrides phrase-derived offerings. firstTerm and lastTerm
// ("Fall 2011", "Fall 2015") bound the schedule window.
func NewFromRegistrarDump(catalogDump io.Reader, schedule io.Reader, firstTerm, lastTerm string) (*Navigator, error) {
	first, err := term.Parse(term.TwoSeason, firstTerm)
	if err != nil {
		return nil, err
	}
	last, err := term.Parse(term.TwoSeason, lastTerm)
	if err != nil {
		return nil, err
	}
	specs, err := registrar.ParseCatalogDump(catalogDump, first, last)
	if err != nil {
		return nil, err
	}
	if schedule != nil {
		recs, err := registrar.ParseScheduleRecords(schedule, term.TwoSeason)
		if err != nil {
			return nil, err
		}
		if err := registrar.MergeSchedule(specs, recs); err != nil {
			return nil, err
		}
	}
	cat, err := catalog.FromSpecs(term.TwoSeason, specs)
	if err != nil {
		return nil, err
	}
	return &Navigator{cat: cat}, nil
}

// ImportReport aggregates everything a lenient registrar import learned:
// parse-stage diagnostics (including the quarantined records'), the course
// IDs dropped before the catalog was built, and the integrity validation
// of the final catalog.
type ImportReport struct {
	// Diagnostics holds the parse- and quarantine-stage diagnostics,
	// error severity marking dropped records.
	Diagnostics []registrar.Diagnostic `json:"diagnostics,omitempty"`
	// Quarantined lists the course IDs excluded from the built catalog,
	// in drop order.
	Quarantined []string `json:"quarantined,omitempty"`
	// Integrity is the validation report for the catalog that was built.
	Integrity integrity.Report `json:"integrity"`
}

// NewFromRegistrarDumpLenient is NewFromRegistrarDump in lenient mode:
// malformed course records, malformed schedule lines and records whose
// prerequisites dangle (reference courses absent from — or quarantined
// out of — the dump) are dropped with diagnostics instead of failing the
// import, and the surviving catalog is integrity-validated. The error is
// non-nil only when the input is unreadable, the window invalid, or no
// importable course survives quarantine.
func NewFromRegistrarDumpLenient(catalogDump io.Reader, schedule io.Reader, firstTerm, lastTerm string) (*Navigator, *ImportReport, error) {
	first, err := term.Parse(term.TwoSeason, firstTerm)
	if err != nil {
		return nil, nil, err
	}
	last, err := term.Parse(term.TwoSeason, lastTerm)
	if err != nil {
		return nil, nil, err
	}
	rep := &ImportReport{}
	specs, diags, err := registrar.ParseCatalogDumpLenient(catalogDump, first, last)
	if err != nil {
		return nil, nil, err
	}
	rep.Diagnostics = diags
	// Quarantined course records come from the catalog parse only: a
	// dropped schedule *line* names its course in its diagnostic but does
	// not remove the course from the import.
	rep.Quarantined = registrar.Quarantined(diags)
	if schedule != nil {
		recs, sdiags, err := registrar.ParseScheduleRecordsLenient(schedule, term.TwoSeason)
		if err != nil {
			return nil, nil, err
		}
		rep.Diagnostics = append(rep.Diagnostics, sdiags...)
		rep.Diagnostics = append(rep.Diagnostics, registrar.MergeScheduleLenient(specs, recs)...)
	}
	// Spec-level integrity gate: quarantine records catalog construction
	// would reject (dangling or self prerequisites, duplicates), to a
	// fixpoint — dropping a course can orphan references to it.
	clean, dropped, issues := integrity.QuarantineSpecs(term.TwoSeason, specs)
	for _, is := range issues {
		rep.Diagnostics = append(rep.Diagnostics, registrar.Diagnostic{
			Course:   is.Course,
			Field:    "integrity",
			Severity: registrar.SevError,
			Msg:      is.Detail,
		})
	}
	rep.Quarantined = append(rep.Quarantined, dropped...)
	if len(clean) == 0 {
		return nil, nil, fmt.Errorf("coursenav: no importable course records (%d quarantined)", len(rep.Quarantined))
	}
	cat, err := catalog.FromSpecs(term.TwoSeason, clean)
	if err != nil {
		return nil, nil, err
	}
	rep.Integrity = integrity.Check(cat)
	return &Navigator{cat: cat}, rep, nil
}

// Integrity validates the navigator's catalog (see internal/integrity):
// prerequisite cycles, unreachable courses, never-offered dependencies and
// schedule inconsistencies, graded by severity. The hot-reload path uses
// the report as its gate.
func (n *Navigator) Integrity() integrity.Report { return integrity.Check(n.cat) }

// WriteCatalogJSON serialises the catalog as JSON.
func (n *Navigator) WriteCatalogJSON(w io.Writer) error { return n.cat.WriteJSON(w) }

// CourseInfo describes one course for presentation.
type CourseInfo struct {
	ID       string   `json:"id"`
	Title    string   `json:"title,omitempty"`
	Prereq   string   `json:"prereq,omitempty"`
	Offered  []string `json:"offered"`
	Workload float64  `json:"workload,omitempty"`
}

// Courses lists every course in catalog order.
func (n *Navigator) Courses() []CourseInfo {
	specs := n.cat.Specs()
	out := make([]CourseInfo, len(specs))
	for i, sp := range specs {
		out[i] = CourseInfo(sp)
	}
	return out
}

// Course returns one course's information.
func (n *Navigator) Course(id string) (CourseInfo, bool) {
	i, ok := n.cat.Index(id)
	if !ok {
		return CourseInfo{}, false
	}
	return n.Courses()[i], true
}

// NumCourses returns the catalog size.
func (n *Navigator) NumCourses() int { return n.cat.Len() }

// CanonicalCourse resolves a course ID to the catalog's spelling: an
// exact match keeps its spelling, otherwise a case-insensitive match
// resolves when it is unambiguous. ok is false for unknown IDs; the
// input is returned unchanged.
func (n *Navigator) CanonicalCourse(id string) (string, bool) { return n.cat.Canonical(id) }

// Lint reports catalog-quality problems: courses that can never be taken
// (unsatisfiable prerequisites) and courses never offered.
func (n *Navigator) Lint() (unreachable, neverOffered []string) {
	return n.cat.Unreachable(), n.cat.NeverOffered()
}

// UseSyntheticHistory configures the reliability ranking's offering-
// probability estimator from a synthesised multi-year offering history
// (paper §4.3.1: probability 1 inside the released schedule — taken to be
// the whole published window — and historical same-season frequency
// beyond). years is the history length; seed fixes the synthesis.
func (n *Navigator) UseSyntheticHistory(years int, seed int64) error {
	hist, err := sched.GenerateHistory(n.cat, years, seed)
	if err != nil {
		return err
	}
	est, err := sched.NewEstimator(n.cat, hist, n.cat.LastTerm())
	if err != nil {
		return err
	}
	n.prob = est.Prob
	return nil
}

// ProjectBeyondRelease extends the catalog's schedule past the released
// window (paper §4.3.1: "class schedules are released for only one or two
// semesters forward"): a synthetic multi-year offering history is
// generated, offerings for the semesters up to horizon are projected
// where the same-season historical frequency reaches threshold, and the
// reliability estimator is configured so projected offerings carry their
// historical probability (< 1) while released ones keep probability 1.
// Exploration windows may then extend to horizon, and the reliability
// ranking discriminates among paths that rely on uncertain offerings.
func (n *Navigator) ProjectBeyondRelease(horizon string, years int, seed int64, threshold float64) error {
	h, err := term.Parse(term.TwoSeason, horizon)
	if err != nil {
		return err
	}
	hist, err := sched.GenerateHistory(n.cat, years, seed)
	if err != nil {
		return err
	}
	released := n.cat.LastTerm()
	projected, err := sched.Project(n.cat, hist, released, h, threshold)
	if err != nil {
		return err
	}
	est, err := sched.NewEstimator(n.cat, hist, released)
	if err != nil {
		return err
	}
	n.cat = projected
	n.prob = est.Prob
	return nil
}

// Goal is an exploration goal (paper §4.2): a predicate on the student's
// future enrollment status.
type Goal struct {
	inner degree.Goal
}

// String describes the goal.
func (g Goal) String() string {
	if g.inner == nil {
		return "none"
	}
	return g.inner.String()
}

// Inner exposes the wrapped degree.Goal for module-internal callers
// (the signature names an internal type): cohort synthesis feeds it to
// the transcript generator, which predates the façade wrapper.
func (g Goal) Inner() degree.Goal { return g.inner }

// GoalCourses builds the complete-all-of goal.
func (n *Navigator) GoalCourses(ids ...string) (Goal, error) {
	g, err := degree.NewCourseSet(n.cat, ids...)
	if err != nil {
		return Goal{}, err
	}
	return Goal{inner: g}, nil
}

// GoalExpr builds a boolean-expression goal, e.g.
// "(COSI 11A and COSI 12B) or COSI 21A".
func (n *Navigator) GoalExpr(src string) (Goal, error) {
	g, err := degree.NewExpr(n.cat, src)
	if err != nil {
		return Goal{}, err
	}
	return Goal{inner: g}, nil
}

// DegreeGroup is one counted clause of a degree requirement.
type DegreeGroup struct {
	Name    string
	Count   int
	Courses []string
}

// GoalDegree builds a counted degree requirement ("7 of core and 5 of
// electives"); completed courses fill at most one slot each.
func (n *Navigator) GoalDegree(groups ...DegreeGroup) (Goal, error) {
	specs := make([]degree.GroupSpec, len(groups))
	for i, g := range groups {
		specs[i] = degree.GroupSpec(g)
	}
	g, err := degree.NewRequirement(n.cat, specs...)
	if err != nil {
		return Goal{}, err
	}
	return Goal{inner: g}, nil
}

// Query describes a student's enrollment status and exploration window.
type Query struct {
	// Completed lists the student's completed course IDs (the X of §2).
	Completed []string
	// Start is the student's current semester, e.g. "Fall 2013".
	Start string
	// End is the end semester d, e.g. "Fall 2015".
	End string
	// MaxPerTerm is the per-semester course limit m; 0 = unlimited.
	MaxPerTerm int
	// MergeStatuses enables the status-interning ablation (DESIGN.md §2):
	// materialised graphs merge identical statuses, and counts and
	// streams run on the interned-status DAG. Combined with Substrate
	// "tree" it fails a count or stream with ErrMergedStreamUnsupported.
	MergeStatuses bool
	// MaxNodes bounds materialised graphs (0 = unlimited); exceeding it
	// returns an error, mirroring the paper's out-of-memory rows.
	MaxNodes int
	// NoPruning disables the §4.2 pruning strategies on goal queries (the
	// Table 1 baseline).
	NoPruning bool
	// Avoid lists courses the student refuses to take (paper §3,
	// "courses to avoid"); no generated path elects them.
	Avoid []string
	// MaxTermWorkload, when positive, caps each semester's summed
	// workload hours.
	MaxTermWorkload float64
	// MinPerTerm, when positive, is a floor on courses per enrolled
	// semester (semesters off stay allowed).
	MinPerTerm int
	// MaxPathCost, when positive, restricts TopK to paths whose ranking
	// cost is at most the threshold (§4.3.1's workload-threshold
	// queries).
	MaxPathCost float64
	// Substrate selects the search structure: "" or "auto" lets each
	// entry point choose (counting and what-if queries run on the
	// interned-status DAG, which answers them in time proportional to the
	// number of distinct statuses rather than the number of paths; path
	// enumeration keeps the tree walk), "tree" forces the legacy walk
	// everywhere, and "dag" forces the DAG — materialising queries
	// (Deadline, GoalPaths) then fail, since a materialised learning
	// graph is inherently per-path. Tallies are identical on either
	// substrate; only Nodes/Edges bookkeeping differs (the DAG counts
	// distinct statuses once).
	Substrate string
	// Budget bounds the run's wall clock, generated statuses and tallied
	// paths. A run that exhausts a bound (or whose context is cancelled,
	// on the *Ctx methods) ends with a partial result whose
	// Summary.Stopped names the cause, rather than an error — the
	// contract that keeps interactive serving responsive on adversarial
	// windows. The zero Budget imposes no bounds.
	Budget Budget
}

// Budget bounds one exploration run (see Query.Budget). It mirrors the
// engine's explore.Budget.
type Budget struct {
	// Timeout bounds the run's wall clock (0 = none beyond the context's
	// own deadline).
	Timeout time.Duration
	// MaxNodes bounds generated statuses across the run (0 = unlimited).
	// Unlike Query.MaxNodes — whose overrun is a hard error — hitting
	// this bound returns the partial work done so far.
	MaxNodes int64
	// MaxPaths bounds tallied paths (0 = unlimited).
	MaxPaths int64
}

func (n *Navigator) compile(q Query) (status.Status, term.Term, explore.Options, error) {
	var zero status.Status
	start, err := term.Parse(term.TwoSeason, q.Start)
	if err != nil {
		return zero, term.Term{}, explore.Options{}, fmt.Errorf("coursenav: start term: %v", err)
	}
	if q.End == "" {
		return zero, term.Term{}, explore.Options{}, fmt.Errorf("coursenav: empty end term: an exploration needs a deadline semester, e.g. \"Fall 2015\"")
	}
	end, err := term.Parse(term.TwoSeason, q.End)
	if err != nil {
		return zero, term.Term{}, explore.Options{}, fmt.Errorf("coursenav: end (deadline) term: %v", err)
	}
	x, err := n.cat.SetOf(q.Completed...)
	if err != nil {
		return zero, term.Term{}, explore.Options{}, err
	}
	opt, err := n.compileOptions(q)
	if err != nil {
		return zero, term.Term{}, explore.Options{}, err
	}
	return status.New(n.cat, start, x), end, opt, nil
}

// compileOptions builds the engine options and constraints from a query,
// ignoring its start/end/completed fields. Split from compile so callers
// holding a query *template* — a cohort request whose members each bring
// their own start and completed set — can compile the shared parts once.
func (n *Navigator) compileOptions(q Query) (explore.Options, error) {
	sub, err := parseSubstrate(q.Substrate)
	if err != nil {
		return explore.Options{}, err
	}
	opt := explore.Options{
		MaxPerTerm:    q.MaxPerTerm,
		MergeStatuses: q.MergeStatuses,
		MaxNodes:      q.MaxNodes,
		MaxPathCost:   q.MaxPathCost,
		Substrate:     sub,
		Budget:        explore.Budget(q.Budget),
	}
	if len(q.Avoid) > 0 {
		avoid, err := explore.NewAvoid(n.cat, q.Avoid...)
		if err != nil {
			return explore.Options{}, err
		}
		opt.Constraints = append(opt.Constraints, avoid)
	}
	if q.MaxTermWorkload > 0 {
		opt.Constraints = append(opt.Constraints, explore.MaxTermWorkload{
			W: n.cat.Workloads(), Hours: q.MaxTermWorkload,
		})
	}
	if q.MinPerTerm > 0 {
		opt.Constraints = append(opt.Constraints, explore.MinPerTerm{Count: q.MinPerTerm})
	}
	return opt, nil
}

// parseSubstrate maps Query.Substrate to the engine's enum.
func parseSubstrate(s string) (explore.Substrate, error) {
	switch s {
	case "", "auto":
		return explore.SubstrateAuto, nil
	case "tree":
		return explore.SubstrateTree, nil
	case "dag":
		return explore.SubstrateDAG, nil
	default:
		return 0, fmt.Errorf("coursenav: unknown substrate %q (want \"auto\", \"tree\" or \"dag\")", s)
	}
}

func (n *Navigator) pruners(q Query, g Goal) []explore.Pruner {
	if q.NoPruning {
		return nil
	}
	return explore.PaperPruners(n.cat, g.inner, q.MaxPerTerm)
}

// Summary reports an exploration run's tallies (see paper Tables 1-2).
type Summary struct {
	// Paths counts generated maximal paths; GoalPaths those ending at a
	// goal-satisfying status.
	Paths, GoalPaths int64
	// Nodes and Edges count generated statuses and transitions.
	Nodes, Edges int64
	// PrunedTime and PrunedAvail count nodes cut per strategy.
	PrunedTime, PrunedAvail int64
	// Elapsed is the generation wall-clock time.
	Elapsed time.Duration
	// Stopped names why the run ended early — "canceled", "deadline",
	// "max-nodes" or "max-paths" (see the explore.Stop* constants) — and
	// is empty for a complete run. A stopped run's tallies are lower
	// bounds; every reported path is still a real path.
	Stopped string
	// Truncated reports a partial run (equivalent to Stopped != "").
	Truncated bool
	// DAG reports that the run executed on the interned-status DAG
	// substrate; Nodes and Edges then count distinct statuses and
	// transitions rather than tree positions.
	DAG bool
}

func summarize(r explore.Result) Summary {
	return Summary{
		Paths: r.Paths, GoalPaths: r.GoalPaths,
		Nodes: r.Nodes, Edges: r.Edges,
		PrunedTime: r.PrunedTime, PrunedAvail: r.PrunedAvail,
		Elapsed: r.Elapsed,
		Stopped: r.Stopped, Truncated: r.Truncated,
		DAG: r.DAG,
	}
}

// Deadline materialises the deadline-driven learning graph (Algorithm 1).
func (n *Navigator) Deadline(q Query) (*Graph, Summary, error) {
	return n.DeadlineCtx(context.Background(), q)
}

// DeadlineCtx is Deadline under a context: cancellation, the context
// deadline, or any Query.Budget bound ends the run with the partial graph
// built so far, Summary.Stopped naming the cause, and a nil error.
func (n *Navigator) DeadlineCtx(ctx context.Context, q Query) (*Graph, Summary, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return nil, Summary{}, err
	}
	res, err := explore.DeadlineCtx(ctx, n.cat, start, end, opt)
	if err != nil {
		return nil, summarize(res), err
	}
	return &Graph{cat: n.cat, g: res.Graph}, summarize(res), nil
}

// DeadlineCount counts deadline-driven paths without materialising the
// graph (constant memory; use for Table-2-scale periods).
func (n *Navigator) DeadlineCount(q Query) (Summary, error) {
	return n.DeadlineCountCtx(context.Background(), q)
}

// DeadlineCountCtx is DeadlineCount under a context (see DeadlineCtx).
// Counting needs no per-path identity, so unless Query.Substrate forces
// the tree walk the count runs on the interned-status DAG — cost scales
// with distinct statuses, not paths, and the tallies are identical.
func (n *Navigator) DeadlineCountCtx(ctx context.Context, q Query) (Summary, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return Summary{}, err
	}
	opt.Substrate = countSubstrate(opt.Substrate)
	res, err := explore.DeadlineCountCtx(ctx, n.cat, start, end, opt)
	return summarize(res), err
}

// countSubstrate resolves SubstrateAuto for counting entry points: counts
// run on the DAG unless the caller forced the tree walk.
func countSubstrate(s explore.Substrate) explore.Substrate {
	if s == explore.SubstrateAuto {
		return explore.SubstrateDAG
	}
	return s
}

// GoalPaths materialises the goal-driven learning graph (§4.2) with the
// paper's pruning strategies (unless Query.NoPruning).
func (n *Navigator) GoalPaths(q Query, g Goal) (*Graph, Summary, error) {
	return n.GoalPathsCtx(context.Background(), q, g)
}

// GoalPathsCtx is GoalPaths under a context (see DeadlineCtx for the
// cancellation contract).
func (n *Navigator) GoalPathsCtx(ctx context.Context, q Query, g Goal) (*Graph, Summary, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return nil, Summary{}, err
	}
	res, err := explore.GoalCtx(ctx, n.cat, start, end, g.inner, n.pruners(q, g), opt)
	if err != nil {
		return nil, summarize(res), err
	}
	return &Graph{cat: n.cat, g: res.Graph}, summarize(res), nil
}

// GoalPathsCount counts goal-driven paths without materialising the graph.
func (n *Navigator) GoalPathsCount(q Query, g Goal) (Summary, error) {
	return n.GoalPathsCountCtx(context.Background(), q, g)
}

// GoalPathsCountCtx is GoalPathsCount under a context (see DeadlineCtx).
// Like DeadlineCountCtx, the count is DAG-accelerated unless
// Query.Substrate forces the tree walk; both pruning strategies remain
// admissible on the DAG (they depend only on the status, never the path).
func (n *Navigator) GoalPathsCountCtx(ctx context.Context, q Query, g Goal) (Summary, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return Summary{}, err
	}
	opt.Substrate = countSubstrate(opt.Substrate)
	res, err := explore.GoalCountCtx(ctx, n.cat, start, end, g.inner, n.pruners(q, g), opt)
	return summarize(res), err
}

// GoalPathsCountHorizons counts goal paths for every deadline in
// [end, end+horizon] — end from the query, horizon extra semesters — in
// ONE run: the returned slice has horizon+1 entries, entry i the
// GoalPaths total the same query with deadline end+i would report. A
// cohort runner probing "how many semesters late does this member
// graduate?" pays one counting run instead of horizon+1. The Summary is
// the run's (its Paths/GoalPaths are relative to end+horizon). It always
// runs on the DAG substrate; Query.Substrate does not apply.
func (n *Navigator) GoalPathsCountHorizons(q Query, g Goal, horizon int) ([]int64, Summary, error) {
	return n.GoalPathsCountHorizonsCtx(context.Background(), q, g, horizon)
}

// GoalPathsCountHorizonsCtx is GoalPathsCountHorizons under a context
// (see DeadlineCtx).
func (n *Navigator) GoalPathsCountHorizonsCtx(ctx context.Context, q Query, g Goal, horizon int) ([]int64, Summary, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return nil, Summary{}, err
	}
	mr, err := explore.GoalCountMultiCtx(ctx, n.cat, start, end, horizon, g.inner, n.pruners(q, g), opt)
	return mr.GoalPathsAt, summarize(mr.Result), err
}

// SharedCounts is one SharedCounter query's answer; see
// explore.SharedCounts.
type SharedCounts = explore.SharedCounts

// SharedCounterStats snapshots a SharedCounter's lifetime tallies; see
// explore.SharedStats.
type SharedCounterStats = explore.SharedStats

// SharedCounter answers goal-path counts for many start positions
// against ONE (catalog, goal, deadline, options) variant from a shared
// interned-status substrate: the cost of a whole cohort scales with the
// distinct statuses reachable across all members, not with per-member
// rebuilds. Safe for concurrent use; see explore.SharedCounter.
type SharedCounter struct {
	nav   *Navigator
	inner *explore.SharedCounter
}

// NewSharedCounter builds a shared counter from a query template — its
// End and option/constraint fields pin the variant; Start and Completed
// are ignored (each Counts call brings its own). horizon extends the
// answered deadlines to [end, end+horizon]; maxStatuses bounds interned
// statuses (0 = default).
func (n *Navigator) NewSharedCounter(q Query, g Goal, horizon int, maxStatuses int64) (*SharedCounter, error) {
	if q.End == "" {
		return nil, fmt.Errorf("coursenav: empty end term: a shared counter needs a deadline semester, e.g. \"Fall 2015\"")
	}
	end, err := term.Parse(term.TwoSeason, q.End)
	if err != nil {
		return nil, fmt.Errorf("coursenav: end (deadline) term: %v", err)
	}
	opt, err := n.compileOptions(q)
	if err != nil {
		return nil, err
	}
	inner, err := explore.NewSharedCounter(n.cat, end, horizon, g.inner, n.pruners(q, g), opt, maxStatuses)
	if err != nil {
		return nil, err
	}
	return &SharedCounter{nav: n, inner: inner}, nil
}

// Counts answers one member position: completed course IDs plus the
// first semester of the remaining plan. GoalPaths[h] is the goal-path
// total under deadline end+h; Paths the maximal-path total under the
// farthest deadline.
func (c *SharedCounter) Counts(ctx context.Context, completed []string, start string) (SharedCounts, error) {
	st, err := term.Parse(term.TwoSeason, start)
	if err != nil {
		return SharedCounts{}, fmt.Errorf("coursenav: start term: %v", err)
	}
	x, err := c.nav.cat.SetOf(completed...)
	if err != nil {
		return SharedCounts{}, err
	}
	return c.inner.Counts(ctx, status.New(c.nav.cat, st, x))
}

// Stats snapshots the counter's lifetime tallies.
func (c *SharedCounter) Stats() SharedCounterStats { return c.inner.Stats() }

// Rankings names the ranking functions TopK accepts.
func Rankings() []string { return []string{"time", "workload", "reliability"} }

// TopK returns the k best goal paths under the named ranking function
// ("time", "workload", "reliability"), best first (§4.3). Reliability
// requires UseSyntheticHistory (or a released schedule covering the whole
// window). Fewer than k paths are returned when fewer exist.
func (n *Navigator) TopK(q Query, g Goal, ranking string, k int) ([]Path, Summary, error) {
	return n.TopKCtx(context.Background(), q, g, ranking, k)
}

// TopKCtx is TopK under a context: a cancelled or over-budget search
// returns the best paths found so far (still rank-ordered and exact, by
// best-first emission order) with Summary.Stopped naming the cause.
func (n *Navigator) TopKCtx(ctx context.Context, q Query, g Goal, ranking string, k int) ([]Path, Summary, error) {
	ranker, err := rank.ByName(ranking, n.cat.Workloads(), n.probFn())
	if err != nil {
		return nil, Summary{}, err
	}
	return n.topK(ctx, q, g, ranker, k)
}

func (n *Navigator) topK(ctx context.Context, q Query, g Goal, ranker rank.Ranker, k int) ([]Path, Summary, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return nil, Summary{}, err
	}
	if opt.Substrate == explore.SubstrateDAG {
		return nil, Summary{}, fmt.Errorf("coursenav: top-k search runs best-first over the tree; substrate \"dag\" does not apply")
	}
	res, err := explore.RankedCtx(ctx, n.cat, start, end, g.inner, ranker, k, n.pruners(q, g), opt)
	sum := Summary{
		Nodes: res.Nodes, Edges: res.Edges,
		PrunedTime: res.PrunedTime, PrunedAvail: res.PrunedAvail,
		Paths: int64(len(res.Paths)), GoalPaths: int64(len(res.Paths)),
		Elapsed: res.Elapsed,
		Stopped: res.Stopped, Truncated: res.Truncated,
	}
	if err != nil {
		return nil, sum, err
	}
	out := make([]Path, len(res.Paths))
	for i, rp := range res.Paths {
		out[i] = newPath(n.cat, res.Graph, rp)
	}
	return out, sum, nil
}

// probFn returns the configured reliability estimator, or one that
// reflects the published schedule (probability 1 when offered, 0
// otherwise) so time/workload queries never need configuration.
func (n *Navigator) probFn() rank.OfferingProb {
	if n.prob != nil {
		return n.prob
	}
	return func(ci int, t term.Term) float64 {
		if n.cat.OfferedIn(t).Contains(ci) {
			return 1
		}
		return 0
	}
}

// Weight pairs a ranking-function name with its weight for TopKWeighted.
type Weight struct {
	Ranking string
	Weight  float64
}

// TopKWeighted is TopK under a linear combination of ranking functions
// (the paper's §6 "more complex ranking functions"): cost =
// Σ weightᵢ·costᵢ on each ranking's native scale. Lemma 2's top-k
// guarantee carries over (see rank.Weighted).
func (n *Navigator) TopKWeighted(q Query, g Goal, weights []Weight, k int) ([]Path, Summary, error) {
	return n.TopKWeightedCtx(context.Background(), q, g, weights, k)
}

// TopKWeightedCtx is TopKWeighted under a context (see TopKCtx).
func (n *Navigator) TopKWeightedCtx(ctx context.Context, q Query, g Goal, weights []Weight, k int) ([]Path, Summary, error) {
	if len(weights) == 0 {
		return nil, Summary{}, fmt.Errorf("coursenav: TopKWeighted needs at least one weight")
	}
	comps := make([]rank.Component, len(weights))
	for i, w := range weights {
		r, err := rank.ByName(w.Ranking, n.cat.Workloads(), n.probFn())
		if err != nil {
			return nil, Summary{}, err
		}
		comps[i] = rank.Component{Ranker: r, Weight: w.Weight}
	}
	ranker, err := rank.NewWeighted(comps...)
	if err != nil {
		return nil, Summary{}, err
	}
	return n.topK(ctx, q, g, ranker, k)
}

// FeasibleNow returns the student's current option set Y: courses offered
// in the start semester whose prerequisites the completed set satisfies.
func (n *Navigator) FeasibleNow(completed []string, startTerm string) ([]string, error) {
	start, err := term.Parse(term.TwoSeason, startTerm)
	if err != nil {
		return nil, err
	}
	x, err := n.cat.SetOf(completed...)
	if err != nil {
		return nil, err
	}
	return n.cat.IDs(n.cat.Options(x, start)), nil
}

// PlanResult reports one plan's validation (see ValidatePlans).
type PlanResult struct {
	// Student is the plan's label from the file.
	Student string `json:"student"`
	// Courses counts the plan's elected courses.
	Courses int `json:"courses"`
	// GoalMet reports whether the validated plan's completions satisfy
	// the goal passed to ValidatePlans (false when no goal was given).
	GoalMet bool `json:"goalMet"`
	// Err is empty for valid plans, otherwise the first rule violation
	// (course not offered that semester, prerequisite unmet, over the
	// per-semester limit, semester gap, …).
	Err string `json:"error,omitempty"`
}

// ValidatePlans checks hand-written course plans against the catalog's
// rules — exactly the per-transition constraints Algorithm 1 enforces —
// and, when goal is non-zero, whether each plan reaches it. Plans use the
// transcript text format:
//
//	student: my-plan
//	Fall 2013: COSI 11A, COSI 29A
//	Spring 2014: COSI 21A
func (n *Navigator) ValidatePlans(r io.Reader, maxPerTerm int, goal Goal) ([]PlanResult, error) {
	trs, err := transcript.Parse(r, term.TwoSeason)
	if err != nil {
		return nil, err
	}
	out := make([]PlanResult, 0, len(trs))
	for _, tr := range trs {
		res := PlanResult{Student: tr.Student, Courses: len(tr.Courses())}
		x, err := transcript.Replay(n.cat, tr, maxPerTerm)
		if err != nil {
			res.Err = err.Error()
		} else if goal.inner != nil {
			res.GoalMet = goal.inner.Satisfied(x)
		}
		out = append(out, res)
	}
	return out, nil
}

// SelectionImpact scores one candidate selection for the student's
// current semester (see CompareSelections).
type SelectionImpact struct {
	// Courses is the candidate selection.
	Courses []string `json:"courses"`
	// GoalPaths counts goal-reaching paths that remain after electing it.
	GoalPaths int64 `json:"goalPaths"`
	// Paths counts all remaining generated paths.
	Paths int64 `json:"paths"`
	// NextOptions is the option-set size one semester later.
	NextOptions int `json:"nextOptions"`
}

// CompareSelections answers the paper's motivating what-if question
// (§1): for every selection the student could make in the Start
// semester, how many paths to the goal remain? Results are sorted best
// first (most goal paths, then most next-semester options, then the
// smaller selection).
func (n *Navigator) CompareSelections(q Query, g Goal) ([]SelectionImpact, error) {
	out, _, err := n.CompareSelectionsCtx(context.Background(), q, g)
	return out, err
}

// CompareSelectionsCtx is CompareSelections under a context. On
// cancellation or budget exhaustion it returns the candidates fully
// scored before the stop together with the stop reason ("canceled",
// "deadline", …); the reason is empty for a complete comparison.
func (n *Navigator) CompareSelectionsCtx(ctx context.Context, q Query, g Goal) ([]SelectionImpact, string, error) {
	start, end, opt, err := n.compile(q)
	if err != nil {
		return nil, "", err
	}
	impacts, stopped, err := explore.CompareSelectionsCtx(ctx, n.cat, start, end, g.inner, n.pruners(q, g), opt)
	if err != nil {
		return nil, stopped, err
	}
	out := make([]SelectionImpact, len(impacts))
	for i, imp := range impacts {
		out[i] = SelectionImpact{
			Courses:     n.cat.IDs(imp.Selection),
			GoalPaths:   imp.GoalPaths,
			Paths:       imp.Paths,
			NextOptions: imp.NextOptions,
		}
	}
	return out, stopped, nil
}
