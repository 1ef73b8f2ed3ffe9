// Command coursenav is the CourseNavigator command-line front end: it
// answers the paper's three exploration queries over the embedded
// evaluation catalog, a catalog JSON file, or raw registrar dumps.
//
// Usage:
//
//	coursenav [global flags] <subcommand> [flags]
//
// Subcommands:
//
//	catalog     list the courses (-json for machine-readable output)
//	lint        report unreachable or never-offered courses
//	options     show the current option set Y for a student
//	deadline    generate all learning paths to an end semester (Alg. 1)
//	goal        generate goal-driven learning paths (§4.2)
//	rank        generate the top-k ranked learning paths (§4.3)
//	audit       degree-progress report against the embedded CS major
//	plan        validate a hand-written plan file against the catalog rules
//	whatif      rank this semester's selections by preserved goal paths
//	cohort      replan a whole cohort against a catalog scenario (batch
//	            what-if): per-student delay/stranding records + aggregate
//	impact      analyse a schedule revision: diff two catalogs, path-space
//	            delta, and which existing plans break
//
// The default path listing of deadline, goal and rank streams: each path
// is printed the moment the engine completes it (rank: best first), so
// the first lines appear while large explorations are still running. The
// graph renders (-dot, -tree, -json) and -count keep the materialised
// single-shot behaviour.
//
// Global flags select the catalog source:
//
//	-catalog file.json          catalog JSON (see `coursenav catalog -json`)
//	-registrar dump.txt         registrar catalog dump (internal/registrar)
//	-schedule records.txt       schedule records overriding dump phrases
//	-window "Fall 2011,Fall 2015"  schedule window for -registrar
//
// Without a source, the embedded 38-course Brandeis-like dataset is used.
//
// Examples:
//
//	coursenav deadline -start "Spring 2015" -end "Fall 2015" -m 2 -tree
//	coursenav goal -start "Fall 2013" -end "Fall 2015" -m 3 -major -limit 5
//	coursenav rank -start "Fall 2013" -end "Fall 2015" -m 3 -major \
//	    -ranking workload -k 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro"
	"repro/internal/catalog"
	"repro/internal/cohort"
	"repro/internal/degree"
	"repro/internal/impact"
	"repro/internal/term"
	"repro/internal/transcript"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coursenav:", err)
		os.Exit(1)
	}
}

type app struct {
	nav   *coursenav.Navigator
	major coursenav.Goal // set when the embedded catalog is used
}

func run(args []string) error {
	global := flag.NewFlagSet("coursenav", flag.ContinueOnError)
	catalogPath := global.String("catalog", "", "catalog JSON file")
	registrarPath := global.String("registrar", "", "registrar catalog dump")
	schedulePath := global.String("schedule", "", "schedule records file (with -registrar)")
	window := global.String("window", "Fall 2011,Fall 2015", "schedule window for -registrar, \"first,last\"")
	global.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: coursenav [global flags] <catalog|lint|options|deadline|goal|rank|audit|plan|whatif|cohort|impact> [flags]")
		global.PrintDefaults()
	}
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		global.Usage()
		return fmt.Errorf("missing subcommand")
	}

	a := &app{}
	switch {
	case *catalogPath != "":
		f, err := os.Open(*catalogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		a.nav, err = coursenav.NewFromJSON(f)
		if err != nil {
			return err
		}
	case *registrarPath != "":
		parts := strings.SplitN(*window, ",", 2)
		if len(parts) != 2 {
			return fmt.Errorf("-window must be \"first,last\"")
		}
		dump, err := os.Open(*registrarPath)
		if err != nil {
			return err
		}
		defer dump.Close()
		var sched *os.File
		if *schedulePath != "" {
			sched, err = os.Open(*schedulePath)
			if err != nil {
				return err
			}
			defer sched.Close()
		}
		var schedReader *os.File
		if sched != nil {
			schedReader = sched
		}
		if schedReader != nil {
			a.nav, err = coursenav.NewFromRegistrarDump(dump, schedReader, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
		} else {
			a.nav, err = coursenav.NewFromRegistrarDump(dump, nil, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
		}
		if err != nil {
			return err
		}
	default:
		a.nav, a.major = coursenav.Brandeis()
	}

	switch cmd, cmdArgs := rest[0], rest[1:]; cmd {
	case "catalog":
		return a.cmdCatalog(cmdArgs)
	case "lint":
		return a.cmdLint(cmdArgs)
	case "options":
		return a.cmdOptions(cmdArgs)
	case "deadline":
		return a.cmdDeadline(cmdArgs)
	case "goal":
		return a.cmdGoal(cmdArgs)
	case "rank":
		return a.cmdRank(cmdArgs)
	case "audit":
		return a.cmdAudit(cmdArgs)
	case "plan":
		return a.cmdPlan(cmdArgs)
	case "whatif":
		return a.cmdWhatIf(cmdArgs)
	case "cohort":
		return a.cmdCohort(cmdArgs)
	case "impact":
		return cmdImpact(cmdArgs)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func (a *app) cmdCatalog(args []string) error {
	fs := flag.NewFlagSet("catalog", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit catalog JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		return a.nav.WriteCatalogJSON(os.Stdout)
	}
	for _, c := range a.nav.Courses() {
		line := c.ID
		if c.Title != "" {
			line += " — " + c.Title
		}
		fmt.Println(line)
		if c.Prereq != "" {
			fmt.Printf("    prereq:   %s\n", c.Prereq)
		}
		fmt.Printf("    offered:  %s\n", strings.Join(c.Offered, ", "))
		if c.Workload > 0 {
			fmt.Printf("    workload: %.1f h/week\n", c.Workload)
		}
	}
	return nil
}

func (a *app) cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	unreachable, neverOffered := a.nav.Lint()
	for _, id := range unreachable {
		fmt.Printf("unreachable prerequisite chain: %s\n", id)
	}
	for _, id := range neverOffered {
		fmt.Printf("never offered: %s\n", id)
	}
	if len(unreachable)+len(neverOffered) == 0 {
		fmt.Println("catalog clean")
	}
	return nil
}

// studentFlags adds the shared enrollment-status flags.
type studentFlags struct {
	completed *string
	start     *string
	end       *string
	m         *int
	substrate *string
}

func addStudentFlags(fs *flag.FlagSet) studentFlags {
	return studentFlags{
		completed: fs.String("completed", "", "comma-separated completed course IDs"),
		start:     fs.String("start", "", "current semester, e.g. \"Fall 2013\""),
		end:       fs.String("end", "", "end semester d, e.g. \"Fall 2015\""),
		m:         fs.Int("m", 3, "max courses per semester (0 = unlimited)"),
		substrate: fs.String("substrate", "auto", "search substrate: auto (counts use the status DAG), tree, dag"),
	}
}

func (sf studentFlags) query() coursenav.Query {
	var completed []string
	if *sf.completed != "" {
		for _, c := range strings.Split(*sf.completed, ",") {
			completed = append(completed, strings.TrimSpace(c))
		}
	}
	return coursenav.Query{
		Completed:  completed,
		Start:      *sf.start,
		End:        *sf.end,
		MaxPerTerm: *sf.m,
		Substrate:  *sf.substrate,
	}
}

func (a *app) cmdOptions(args []string) error {
	fs := flag.NewFlagSet("options", flag.ContinueOnError)
	sf := addStudentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := sf.query()
	opts, err := a.nav.FeasibleNow(q.Completed, q.Start)
	if err != nil {
		return err
	}
	if len(opts) == 0 {
		fmt.Println("no electable courses this semester")
		return nil
	}
	for _, id := range opts {
		fmt.Println(id)
	}
	return nil
}

// renderFlags control graph output.
type renderFlags struct {
	dot, tree, asJSON *bool
	count             *bool
	limit             *int
}

func addRenderFlags(fs *flag.FlagSet) renderFlags {
	return renderFlags{
		dot:    fs.Bool("dot", false, "emit Graphviz DOT"),
		tree:   fs.Bool("tree", false, "emit ASCII tree"),
		asJSON: fs.Bool("json", false, "emit graph JSON"),
		count:  fs.Bool("count", false, "count paths only (no graph, constant memory)"),
		limit:  fs.Int("limit", 10, "max paths to print (0 = all)"),
	}
}

func printSummary(sum coursenav.Summary) {
	sub := ""
	if sum.DAG {
		sub = " substrate=dag"
	}
	fmt.Printf("paths=%d goalPaths=%d nodes=%d edges=%d prunedTime=%d prunedAvail=%d elapsed=%v%s\n",
		sum.Paths, sum.GoalPaths, sum.Nodes, sum.Edges, sum.PrunedTime, sum.PrunedAvail, sum.Elapsed, sub)
}

// wantsGraph reports whether a graph render was requested; everything
// else streams.
func (rf renderFlags) wantsGraph() bool { return *rf.dot || *rf.tree || *rf.asJSON }

// render emits the materialised graph in the requested format.
func (a *app) render(g *coursenav.Graph, sum coursenav.Summary, rf renderFlags) error {
	printSummary(sum)
	switch {
	case *rf.dot:
		return g.WriteDOT(os.Stdout)
	case *rf.tree:
		return g.WriteTree(os.Stdout, 0)
	default:
		return g.WriteJSON(os.Stdout, 0)
	}
}

// streamList drives a streaming run, printing each path the moment the
// engine delivers it — the first line appears while the exploration is
// still working, and memory stays proportional to the search depth. Only
// the first `limit` paths are printed (0 = all); the run continues past
// the limit so the trailing summary still carries exact totals.
func streamList(limit int, goalOnly bool, run func(fn func(coursenav.StreamedPath) error) (coursenav.Summary, error)) error {
	shown := 0
	var total int64
	sum, err := run(func(p coursenav.StreamedPath) error {
		if goalOnly && !p.Goal {
			return nil
		}
		total++
		if limit > 0 && shown >= limit {
			return nil
		}
		shown++
		fmt.Printf("%3d. %s\n", shown, p.Path)
		return nil
	})
	if err != nil {
		return err
	}
	if int64(shown) < total {
		fmt.Printf("… (%d more; raise -limit or use -dot/-json)\n", total-int64(shown))
	}
	printSummary(sum)
	return nil
}

func (a *app) cmdDeadline(args []string) error {
	fs := flag.NewFlagSet("deadline", flag.ContinueOnError)
	sf := addStudentFlags(fs)
	rf := addRenderFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rf.count {
		sum, err := a.nav.DeadlineCount(sf.query())
		if err != nil {
			return err
		}
		printSummary(sum)
		return nil
	}
	if !rf.wantsGraph() {
		return streamList(*rf.limit, false, func(fn func(coursenav.StreamedPath) error) (coursenav.Summary, error) {
			return a.nav.DeadlineStream(context.Background(), sf.query(), fn)
		})
	}
	g, sum, err := a.nav.Deadline(sf.query())
	if err != nil {
		return err
	}
	return a.render(g, sum, rf)
}

// goalFlags parse the three goal forms.
type goalFlags struct {
	courses *string
	expr    *string
	major   *bool
}

func addGoalFlags(fs *flag.FlagSet) goalFlags {
	return goalFlags{
		courses: fs.String("goal-courses", "", "goal: complete these comma-separated courses"),
		expr:    fs.String("goal-expr", "", "goal: satisfy this boolean expression"),
		major:   fs.Bool("major", false, "goal: the embedded CS major (7 core + 5 electives)"),
	}
}

func (a *app) buildGoal(gf goalFlags) (coursenav.Goal, error) {
	set := 0
	if *gf.courses != "" {
		set++
	}
	if *gf.expr != "" {
		set++
	}
	if *gf.major {
		set++
	}
	if set != 1 {
		return coursenav.Goal{}, fmt.Errorf("set exactly one of -goal-courses, -goal-expr, -major")
	}
	switch {
	case *gf.major:
		if a.major == (coursenav.Goal{}) {
			return coursenav.Goal{}, fmt.Errorf("-major requires the embedded catalog")
		}
		return a.major, nil
	case *gf.courses != "":
		var ids []string
		for _, c := range strings.Split(*gf.courses, ",") {
			ids = append(ids, strings.TrimSpace(c))
		}
		return a.nav.GoalCourses(ids...)
	default:
		return a.nav.GoalExpr(*gf.expr)
	}
}

func (a *app) cmdGoal(args []string) error {
	fs := flag.NewFlagSet("goal", flag.ContinueOnError)
	sf := addStudentFlags(fs)
	rf := addRenderFlags(fs)
	gf := addGoalFlags(fs)
	noPrune := fs.Bool("no-pruning", false, "disable the §4.2 pruning strategies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	goal, err := a.buildGoal(gf)
	if err != nil {
		return err
	}
	q := sf.query()
	q.NoPruning = *noPrune
	if *rf.count {
		sum, err := a.nav.GoalPathsCount(q, goal)
		if err != nil {
			return err
		}
		printSummary(sum)
		return nil
	}
	if !rf.wantsGraph() {
		return streamList(*rf.limit, true, func(fn func(coursenav.StreamedPath) error) (coursenav.Summary, error) {
			return a.nav.GoalStream(context.Background(), q, goal, fn)
		})
	}
	g, sum, err := a.nav.GoalPaths(q, goal)
	if err != nil {
		return err
	}
	return a.render(g, sum, rf)
}

func (a *app) cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ContinueOnError)
	sf := addStudentFlags(fs)
	gf := addGoalFlags(fs)
	ranking := fs.String("ranking", "time", "ranking function: time, workload, reliability")
	k := fs.Int("k", 5, "number of top paths")
	histYears := fs.Int("history-years", 4, "synthetic offering-history length for reliability")
	seed := fs.Int64("seed", 1, "history synthesis seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	goal, err := a.buildGoal(gf)
	if err != nil {
		return err
	}
	if *ranking == "reliability" {
		if err := a.nav.UseSyntheticHistory(*histYears, *seed); err != nil {
			return err
		}
	}
	// Stream the top-k: best-first search delivers each path the moment
	// it is popped, best path first, long before the search finishes.
	n := 0
	sum, err := a.nav.TopKStream(context.Background(), sf.query(), goal, *ranking, *k, func(p coursenav.StreamedPath) error {
		n++
		fmt.Printf("%3d. [%s=%.4g] %s\n", n, *ranking, p.Value, p.Path)
		return nil
	})
	if err != nil {
		return err
	}
	printSummary(sum)
	if n < *k {
		fmt.Printf("only %d goal paths exist\n", n)
	}
	return nil
}

func (a *app) cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	completed := fs.String("completed", "", "comma-separated completed course IDs")
	now := fs.String("now", "", "audit semester, e.g. \"Fall 2014\" (enables electable-now)")
	deadline := fs.String("deadline", "", "target semester (enables reachability check)")
	m := fs.Int("m", 3, "max courses per semester for the reachability check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if a.major == (coursenav.Goal{}) {
		return fmt.Errorf("audit requires the embedded catalog's degree goal")
	}
	var done []string
	if *completed != "" {
		for _, c := range strings.Split(*completed, ",") {
			done = append(done, strings.TrimSpace(c))
		}
	}
	rep, err := a.nav.Audit(done, a.major, *now, *deadline, *m)
	if err != nil {
		return err
	}
	return rep.Write(os.Stdout)
}

// cmdPlan validates a hand-written plan file (the transcript text format:
// "student:" then "TERM: COURSE, COURSE" lines) against the catalog's
// offering and prerequisite rules, and optionally a goal.
func (a *app) cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	file := fs.String("file", "", "plan file (transcript format); \"-\" for stdin")
	m := fs.Int("m", 3, "max courses per semester (0 = unlimited)")
	gf := addGoalFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("plan: -file is required")
	}
	in := os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var goal coursenav.Goal
	wantGoal := *gf.courses != "" || *gf.expr != "" || *gf.major
	if wantGoal {
		g, err := a.buildGoal(gf)
		if err != nil {
			return err
		}
		goal = g
	}
	results, err := a.nav.ValidatePlans(in, *m, goal)
	if err != nil {
		return err
	}
	failures := 0
	for _, r := range results {
		switch {
		case r.Err != "":
			failures++
			fmt.Printf("✗ %s: %s\n", r.Student, r.Err)
		case wantGoal && !r.GoalMet:
			failures++
			fmt.Printf("✗ %s: valid plan but the goal is not met\n", r.Student)
		default:
			fmt.Printf("✓ %s: valid (%d courses)\n", r.Student, r.Courses)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d plans invalid", failures, len(results))
	}
	return nil
}

func (a *app) cmdWhatIf(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	sf := addStudentFlags(fs)
	gf := addGoalFlags(fs)
	limit := fs.Int("limit", 15, "max selections to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	goal, err := a.buildGoal(gf)
	if err != nil {
		return err
	}
	impacts, err := a.nav.CompareSelections(sf.query(), goal)
	if err != nil {
		return err
	}
	dead := 0
	shown := 0
	for _, imp := range impacts {
		if imp.GoalPaths == 0 {
			dead++
			continue
		}
		if *limit > 0 && shown >= *limit {
			continue
		}
		shown++
		fmt.Printf("%8d paths  %2d next options  {%s}\n",
			imp.GoalPaths, imp.NextOptions, strings.Join(imp.Courses, ", "))
	}
	if dead > 0 {
		fmt.Printf("%d selections close off the goal entirely\n", dead)
	}
	return nil
}

// parseChanges parses a scenario change list: semicolon-separated
// entries of the form "COURSE@Term" or "COURSE@Term|Term" (the terms the
// course is cancelled from / added to).
func parseChanges(s string) ([]cohort.Change, error) {
	var out []cohort.Change
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		course, terms, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("change %q: want COURSE@Term or COURSE@Term|Term", entry)
		}
		ch := cohort.Change{Course: strings.TrimSpace(course)}
		for _, t := range strings.Split(terms, "|") {
			if t = strings.TrimSpace(t); t != "" {
				ch.Terms = append(ch.Terms, t)
			}
		}
		if ch.Course == "" || len(ch.Terms) == 0 {
			return nil, fmt.Errorf("change %q: want COURSE@Term or COURSE@Term|Term", entry)
		}
		out = append(out, ch)
	}
	return out, nil
}

// cmdCohort replans a whole cohort against a catalog scenario — the
// batch form of whatif. Members come from a transcript file or are
// synthesized from a seed; each is replanned through the same engine a
// single-student query uses, with identical sub-requests memoised.
func (a *app) cmdCohort(args []string) error {
	fs := flag.NewFlagSet("cohort", flag.ContinueOnError)
	start := fs.String("start", "", "synthesis window start, e.g. \"Fall 2013\" (with -synthesize)")
	end := fs.String("end", "", "deadline semester d every member is replanned against")
	m := fs.Int("m", 3, "max courses per semester (0 = unlimited)")
	gf := addGoalFlags(fs)
	transcripts := fs.String("transcripts", "", "member source: transcript file (internal/transcript format)")
	synthesize := fs.Int("synthesize", 0, "member source: synthesize this many students from -member-seed")
	memberSeed := fs.Int64("member-seed", 1, "cohort synthesis seed (with -synthesize)")
	cancel := fs.String("cancel", "", "scenario: cancel offerings, \"COURSE@Term|Term;COURSE@Term\"")
	add := fs.String("add", "", "scenario: add offerings, same form as -cancel")
	samples := fs.Int("samples", 0, "Monte-Carlo offering-schedule samples for reliability (0 = off)")
	scenarioSeed := fs.Int64("scenario-seed", 1, "schedule sampling seed (with -samples)")
	histYears := fs.Int("history-years", cohort.DefaultHistoryYears, "offering-history length for sampling")
	released := fs.String("released", "", "last term with a published schedule (default: -start)")
	horizon := fs.Int("horizon", cohort.DefaultHorizon, "semesters past -end to probe for delay")
	baseline := fs.Bool("baseline", false, "also count each member's paths under the unmodified catalog")
	detail := fs.Bool("detail", false, "embed each member's what-if replan in the NDJSON records")
	ndjson := fs.Bool("ndjson", false, "emit the API's NDJSON records instead of the table")
	workers := fs.Int("workers", 1, "member-pipeline width (records stay in member order; output is identical at any width)")
	shared := fs.Bool("shared", true, "count on the cross-member shared DAG substrate (false = dedicated run per unit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *end == "" {
		return fmt.Errorf("cohort: -end is required")
	}
	if (*transcripts != "") == (*synthesize > 0) {
		return fmt.Errorf("cohort: set exactly one member source: -transcripts or -synthesize")
	}
	set := 0
	for _, on := range []bool{*gf.courses != "", *gf.expr != "", *gf.major} {
		if on {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("set exactly one of -goal-courses, -goal-expr, -major")
	}
	// Goals are catalog-bound: every variant (scenario delta, each
	// sampled schedule, the baseline) rebuilds the goal on its own
	// catalog.
	makeGoal := func(nav *coursenav.Navigator) (coursenav.Goal, error) {
		switch {
		case *gf.major:
			return nav.BrandeisMajor()
		case *gf.courses != "":
			var ids []string
			for _, c := range strings.Split(*gf.courses, ",") {
				ids = append(ids, strings.TrimSpace(c))
			}
			return nav.GoalCourses(ids...)
		default:
			return nav.GoalExpr(*gf.expr)
		}
	}

	sc := cohort.Scenario{
		Samples:         *samples,
		Seed:            *scenarioSeed,
		HistoryYears:    *histYears,
		ReleasedThrough: *released,
	}
	var err error
	if sc.Cancel, err = parseChanges(*cancel); err != nil {
		return fmt.Errorf("-cancel: %v", err)
	}
	if sc.Add, err = parseChanges(*add); err != nil {
		return fmt.Errorf("-add: %v", err)
	}
	sc.Canonicalize(a.nav.CanonicalCourse)
	if sc.ReleasedThrough == "" {
		sc.ReleasedThrough = *start
	}
	cat := a.nav.Catalog()
	scenCat, err := sc.Apply(cat)
	if err != nil {
		return err
	}
	scenNav := a.nav
	if scenCat != cat {
		scenNav = coursenav.NewFromCatalog(scenCat)
	}
	sampleCats, err := sc.SampleSchedules(scenCat)
	if err != nil {
		return err
	}
	sampleNavs := make([]*coursenav.Navigator, len(sampleCats))
	for i, c := range sampleCats {
		sampleNavs[i] = coursenav.NewFromCatalog(c)
	}

	var members []cohort.Member
	if *transcripts != "" {
		f, err := os.Open(*transcripts)
		if err != nil {
			return err
		}
		trs, err := transcript.Parse(f, cat.Calendar())
		f.Close()
		if err != nil {
			return err
		}
		if members, err = cohort.FromTranscripts(cat, trs, *m); err != nil {
			return err
		}
	} else {
		if *start == "" {
			return fmt.Errorf("cohort: -synthesize requires -start")
		}
		startT, err := term.Parse(cat.Calendar(), *start)
		if err != nil {
			return err
		}
		endT, err := term.Parse(cat.Calendar(), *end)
		if err != nil {
			return err
		}
		goal, err := makeGoal(a.nav)
		if err != nil {
			return err
		}
		members, err = cohort.Synthesize(cat, goal.Inner(), startT, endT, *m, *synthesize,
			rand.New(rand.NewSource(*memberSeed)))
		if err != nil {
			return err
		}
	}

	np := &cohort.NavPlanner{
		Base:       a.nav,
		Scenario:   scenNav,
		Samples:    sampleNavs,
		MakeGoal:   makeGoal,
		MaxPerTerm: *m,
	}
	var planner cohort.Planner = np
	var sp *cohort.SharedPlanner
	if *shared {
		// Counting units run on one interned DAG + tally memo per catalog
		// variant, shared across all members; replans keep the dedicated
		// path. Identical results either way — -shared=false is the
		// apples-to-apples comparison switch.
		sp = &cohort.SharedPlanner{
			Inner:    np,
			Base:     a.nav,
			Scenario: scenNav,
			Samples:  sampleNavs,
			MakeGoal: makeGoal,
			Query:    coursenav.Query{MaxPerTerm: *m},
		}
		planner = sp
	}
	runner := cohort.Runner{
		Planner: planner,
		Opts: cohort.Options{
			End:      *end,
			Horizon:  *horizon,
			Baseline: *baseline,
			Detail:   *detail,
			Samples:  *samples,
			Calendar: cat.Calendar(),
			Workers:  *workers,
		},
	}
	enc := json.NewEncoder(os.Stdout)
	sum, err := runner.Run(context.Background(), members, func(rec cohort.MemberRecord) error {
		if *ndjson {
			return enc.Encode(struct {
				Member cohort.MemberRecord `json:"member"`
			}{rec})
		}
		line := fmt.Sprintf("%-10s goalPaths=%d", rec.Student, rec.GoalPaths)
		if rec.Baseline != nil {
			line += fmt.Sprintf(" baseline=%d", *rec.Baseline)
		}
		if rec.Delay > 0 {
			line += fmt.Sprintf(" delay=%d", rec.Delay)
		}
		if rec.Stranded {
			line += " STRANDED"
		}
		if rec.Reliability != nil {
			line += fmt.Sprintf(" reliability=%.2f", *rec.Reliability)
		}
		if rec.Error != "" {
			line += " error=" + rec.Error
		}
		fmt.Println(line)
		return nil
	})
	if err != nil {
		return err
	}
	if *ndjson {
		return enc.Encode(struct {
			Summary cohort.Summary `json:"summary"`
		}{sum})
	}
	fmt.Printf("members=%d affected=%d delayed=%d stranded=%d errors=%d meanDelay=%.2f units=%d reused=%d\n",
		sum.Members, sum.Affected, sum.Delayed, sum.Stranded, sum.Errors, sum.MeanDelay, sum.Units, sum.Coalesced)
	if sp != nil {
		st := sp.Stats()
		fmt.Printf("substrate: statuses=%d hits=%d dpReused=%d builds=%d evictions=%d\n",
			st.Statuses, st.Hits, st.DPReused, st.Builds, st.Evictions)
	}
	return nil
}

// cmdImpact is catalog-source independent (it loads its own two catalog
// versions), so it is a free function rather than an app method.
func cmdImpact(args []string) error {
	fs := flag.NewFlagSet("impact", flag.ContinueOnError)
	oldPath := fs.String("old", "", "old catalog JSON")
	newPath := fs.String("new", "", "revised catalog JSON")
	goalCourses := fs.String("goal-courses", "", "goal: complete these comma-separated courses")
	completed := fs.String("completed", "", "comma-separated completed course IDs")
	start := fs.String("start", "", "current semester")
	end := fs.String("end", "", "end semester")
	m := fs.Int("m", 3, "max courses per semester")
	plansPath := fs.String("plans", "", "existing plans file (transcript format) to replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" || *goalCourses == "" || *start == "" || *end == "" {
		return fmt.Errorf("impact: -old, -new, -goal-courses, -start and -end are required")
	}
	loadCat := func(path string) (*catalog.Catalog, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return catalog.ReadJSON(term.TwoSeason, f)
	}
	oldCat, err := loadCat(*oldPath)
	if err != nil {
		return err
	}
	newCat, err := loadCat(*newPath)
	if err != nil {
		return err
	}
	startTerm, err := term.Parse(term.TwoSeason, *start)
	if err != nil {
		return err
	}
	endTerm, err := term.Parse(term.TwoSeason, *end)
	if err != nil {
		return err
	}
	var ids []string
	for _, c := range strings.Split(*goalCourses, ",") {
		ids = append(ids, strings.TrimSpace(c))
	}
	var done []string
	if *completed != "" {
		for _, c := range strings.Split(*completed, ",") {
			done = append(done, strings.TrimSpace(c))
		}
	}
	analysis := impact.Analysis{
		Start: startTerm, End: endTerm,
		Completed: done, MaxPerTerm: *m,
		Goal: func(cat *catalog.Catalog) (degree.Goal, error) {
			return degree.NewCourseSet(cat, ids...)
		},
	}
	if *plansPath != "" {
		f, err := os.Open(*plansPath)
		if err != nil {
			return err
		}
		plans, err := transcript.Parse(f, term.TwoSeason)
		f.Close()
		if err != nil {
			return err
		}
		analysis.Plans = plans
	}
	rep, err := impact.Compare(oldCat, newCat, analysis)
	if err != nil {
		return err
	}
	return impact.Write(os.Stdout, rep)
}
