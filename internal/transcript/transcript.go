// Package transcript models anonymised student transcripts and the §5.2
// "comparison with existing learning paths" experiment.
//
// The paper obtained 83 anonymous transcripts of Brandeis CS majors
// (Fall '12 – Fall '15) and verified that every actual path appears among
// the goal-driven algorithm's generated paths. The real transcripts are
// not public, so Generate synthesises feasible goal-reaching walks with
// the same role (DESIGN.md §4): the experiment's check — actual ⊆
// generated — is replayed by Replay (rule-level validation, equivalent to
// membership in the exhaustively generated path set because the generator
// emits every feasible path) and, for small instances, by FollowsGraph
// (literal edge-walk containment in a materialised learning graph).
package transcript

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

// Entry is one semester of a transcript: the courses elected that term.
type Entry struct {
	Term    term.Term
	Courses []string
}

// Transcript is an anonymised per-student course history, ordered by term
// with no gaps (a semester off is an Entry with no courses).
type Transcript struct {
	Student string
	Entries []Entry
}

// Start returns the first semester, or a zero Term for empty transcripts.
func (tr Transcript) Start() term.Term {
	if len(tr.Entries) == 0 {
		return term.Term{}
	}
	return tr.Entries[0].Term
}

// Courses returns all course IDs in the transcript, in election order.
func (tr Transcript) Courses() []string {
	var out []string
	for _, e := range tr.Entries {
		out = append(out, e.Courses...)
	}
	return out
}

// Replay validates the transcript against the catalog's rules, exactly the
// constraints Algorithm 1 enforces per transition: entries in consecutive
// terms, each elected course offered that term, not already completed, its
// prerequisites satisfied by prior completions, and at most maxPerTerm
// elections per term. It returns the final completed set.
func Replay(cat *catalog.Catalog, tr Transcript, maxPerTerm int) (bitset.Set, error) {
	x := bitset.New(cat.Len())
	if len(tr.Entries) == 0 {
		return x, fmt.Errorf("transcript %s: empty", tr.Student)
	}
	prev := term.Term{}
	for i, e := range tr.Entries {
		if e.Term.IsZero() || e.Term.Calendar() != cat.Calendar() {
			return x, fmt.Errorf("transcript %s: entry %d has invalid term", tr.Student, i)
		}
		if i > 0 && e.Term.Sub(prev) != 1 {
			return x, fmt.Errorf("transcript %s: gap between %v and %v (semesters off must be explicit empty entries)", tr.Student, prev, e.Term)
		}
		prev = e.Term
		if maxPerTerm > 0 && len(e.Courses) > maxPerTerm {
			return x, fmt.Errorf("transcript %s: %d courses in %v exceeds limit %d", tr.Student, len(e.Courses), e.Term, maxPerTerm)
		}
		options := cat.Options(x, e.Term)
		taken := bitset.New(cat.Len())
		for _, id := range e.Courses {
			ci, ok := cat.Index(id)
			if !ok {
				return x, fmt.Errorf("transcript %s: unknown course %q", tr.Student, id)
			}
			if taken.Contains(ci) {
				return x, fmt.Errorf("transcript %s: %q elected twice in %v", tr.Student, id, e.Term)
			}
			if !options.Contains(ci) {
				return x, fmt.Errorf("transcript %s: %q not electable in %v (offered and prerequisites satisfied?)", tr.Student, id, e.Term)
			}
			taken.Add(ci)
		}
		x.UnionInPlace(taken)
	}
	return x, nil
}

// FollowsGraph reports whether the transcript is literally one of the
// paths of a materialised learning graph: a root-to-node walk whose edge
// selections match the transcript's entries semester by semester. The
// walk may end at any node (generated paths may extend past the goal).
func FollowsGraph(cat *catalog.Catalog, g *graph.Graph, tr Transcript) bool {
	cur := g.Root()
	if len(tr.Entries) == 0 || !g.Node(cur).Status.Term.Equal(tr.Entries[0].Term) {
		return false
	}
	for _, e := range tr.Entries {
		want, err := cat.SetOf(e.Courses...)
		if err != nil {
			return false
		}
		next := graph.NodeID(-1)
		for _, eid := range g.Node(cur).Out {
			edge := g.Edge(eid)
			if edge.Selection.Equal(want) {
				next = edge.To
				break
			}
		}
		if next < 0 {
			return false
		}
		cur = next
	}
	return true
}

// Generate synthesises n transcripts of students who reach the goal by the
// end semester: random feasible walks (uniform among electable selections,
// biased toward goal-relevant courses) with backtracking. Walks stop at
// the first goal-satisfying status, like the goal-driven algorithm's end
// nodes. It fails if a goal-reaching walk cannot be found (unsatisfiable
// configuration).
//
// Seeding contract: all randomness flows from the explicit seed — equal
// (catalog, goal, window, maxPerTerm, n, seed) inputs produce byte-
// identical transcripts on every run and platform. Generate never touches
// the package-level math/rand state. Callers composing several generation
// steps into one reproducible pipeline (e.g. cohort synthesis) should use
// GenerateRand and thread a single *rand.Rand through every step.
func Generate(cat *catalog.Catalog, goal degree.Goal, start, end term.Term, maxPerTerm, n int, seed int64) ([]Transcript, error) {
	return GenerateRand(cat, goal, start, end, maxPerTerm, n, rand.New(rand.NewSource(seed)))
}

// GenerateRand is Generate drawing from a caller-owned random source: the
// generator consumes rng in a fixed order, so an equal-state rng yields
// identical transcripts, and sequential calls sharing one rng form a
// single deterministic stream (the second call continues where the first
// stopped). rng must not be shared concurrently. Each sampled selection
// draws one Intn for its size and then exactly Rand.Perm's draws for the
// shuffle (replayed in a reused buffer), so the draw sequence — and with
// it every synthesised cohort — is that of a generator calling Rand.Perm.
func GenerateRand(cat *catalog.Catalog, goal degree.Goal, start, end term.Term, maxPerTerm, n int, rng *rand.Rand) ([]Transcript, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transcript: n must be positive")
	}
	if rng == nil {
		return nil, fmt.Errorf("transcript: nil rng")
	}
	w := &walker{
		cat: cat, goal: goal, end: end, m: maxPerTerm,
		pruners:   explore.PaperPruners(cat, goal, maxPerTerm),
		relevant:  goal.Relevant(),
		rng:       rng,
		selection: bitset.New(cat.Len()),
	}
	out := make([]Transcript, 0, n)
	for i := 0; i < n; i++ {
		w.path = w.path[:0]
		if !w.walk(status.New(cat, start, bitset.New(cat.Len())), 0) {
			return nil, fmt.Errorf("transcript: no goal-reaching walk from %v to %v", start, end)
		}
		out = append(out, Transcript{Student: fmt.Sprintf("S%03d", i+1), Entries: w.entries()})
	}
	return out, nil
}

// sampleTries is the number of random selections drawn per semester.
const sampleTries = 48

// walker is one generation run's scratch state, reused by every node of
// every walk so that sampling a semester allocates nothing.
type walker struct {
	cat      *catalog.Catalog
	goal     degree.Goal
	end      term.Term
	m        int
	pruners  []explore.Pruner
	relevant bitset.Set // goal.Relevant(), which clones on every call
	rng      *rand.Rand

	options   []int      // the current node's option set
	permBuf   []int      // perm's output
	frames    []frame    // candidate selections per walk depth
	path      []step     // the selections of the walk in progress
	selection bitset.Set // the selection being tried, as a set
}

// frame holds one node's distinct candidate selections back to back:
// candidate i is ids[ends[i-1]:ends[i]], course indices ascending, and
// keys[i] its fingerprint, a 64-bit mask of the indices mod 64 (exact
// for catalogs of at most 64 courses, a filter beyond).
type frame struct {
	ids, ends []int
	keys      []uint64
}

func (f *frame) candidate(i int) []int {
	lo := 0
	if i > 0 {
		lo = f.ends[i-1]
	}
	return f.ids[lo:f.ends[i]]
}

// add records sel, the frame's trailing ids, as a candidate unless it
// duplicates one, in which case it is dropped.
func (f *frame) add(sel []int) {
	var key uint64
	for _, ci := range sel {
		key |= 1 << (ci % 64)
	}
	for i, k := range f.keys {
		if k == key && slices.Equal(f.candidate(i), sel) {
			f.ids = f.ids[:len(f.ids)-len(sel)]
			return
		}
	}
	f.ends = append(f.ends, len(f.ids))
	f.keys = append(f.keys, key)
}

// step is one semester of the walk in progress: its term and the
// selection elected, held in the frame that sampled it.
type step struct {
	term term.Term
	ids  []int
}

// perm returns a random permutation of [0, n) in a reused buffer,
// drawing from the rng exactly as Rand.Perm does.
func (w *walker) perm(n int) []int {
	m := slices.Grow(w.permBuf[:0], n)[:n]
	for i := 0; i < n; i++ {
		j := w.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	w.permBuf = m
	return m
}

// walk extends the path with a goal-reaching suffix from st; it returns
// false when none exists below this node (triggering backtracking above).
// The goal-driven pruning strategies (admissible, so they never cut a
// goal-reaching walk) keep the backtracking tractable in tight windows.
func (w *walker) walk(st status.Status, depth int) bool {
	if w.goal.Satisfied(st.Completed) {
		return true
	}
	if !st.Term.Before(w.end) {
		return false
	}
	minTake := 0
	for _, p := range w.pruners {
		prune, mt := p.Check(st, w.end)
		if prune {
			return false
		}
		if mt > minTake {
			minTake = mt
		}
	}
	if depth == len(w.frames) {
		w.frames = append(w.frames, frame{})
	}
	f := &w.frames[depth]
	f.ids, f.ends, f.keys = f.ids[:0], f.ends[:0], f.keys[:0]
	w.options = w.options[:0]
	st.Options.ForEach(func(ci int) { w.options = append(w.options, ci) })
	if len(w.options) > 0 {
		if !w.sample(f, minTake) {
			return false // cannot take enough courses this semester
		}
	} else {
		f.ends = append(f.ends, 0) // semester off: one empty selection
	}
	for i := range f.ends {
		ids := f.candidate(i)
		w.selection.Clear()
		for _, ci := range ids {
			w.selection.Add(ci)
		}
		w.path = append(w.path, step{term: st.Term, ids: ids})
		if w.walk(st.Advance(w.cat, w.selection), depth+1) {
			return true
		}
		w.path = w.path[:len(w.path)-1]
		// The recursion may have grown w.frames; re-derive f.
		f = &w.frames[depth]
	}
	return false
}

// sample fills f with the distinct candidate selections of the current
// node: subsets of the option set sized within [max(minTake,1), m],
// shuffled, goal-relevant-heavy first. Enumerating all subsets would be
// exponential; sampling a bounded number of random subsets suffices
// because backtracking covers failures. It reports false when the
// semester cannot hold minTake courses.
func (w *walker) sample(f *frame, minTake int) bool {
	options := w.options
	maxSize := min(w.m, len(options))
	loSize := max(1, minTake)
	if loSize > maxSize {
		return false
	}
	for try := 0; try < sampleTries; try++ {
		size := loSize + w.rng.Intn(maxSize-loSize+1)
		perm := w.perm(len(options))
		// Bias: move goal-relevant courses to the front, then cut to
		// size, so most samples make progress. The partition is stable
		// (the shuffle order survives on each side), and only its first
		// size elements are needed.
		lo := len(f.ids)
		for _, relevant := range [2]bool{true, false} {
			for _, pi := range perm {
				if len(f.ids)-lo == size {
					break
				}
				if w.relevant.Contains(options[pi]) == relevant {
					f.ids = append(f.ids, options[pi])
				}
			}
		}
		sel := f.ids[lo:]
		slices.Sort(sel)
		f.add(sel)
	}
	return true
}

// entries renders the finished walk as transcript entries, building the
// course-ID lists only now that the walk has succeeded.
func (w *walker) entries() []Entry {
	if len(w.path) == 0 {
		return nil
	}
	total := 0
	for _, s := range w.path {
		total += len(s.ids)
	}
	out := make([]Entry, len(w.path))
	ids := make([]string, 0, total)
	for i, s := range w.path {
		lo := len(ids)
		for _, ci := range s.ids {
			ids = append(ids, w.cat.ID(ci))
		}
		out[i] = Entry{Term: s.term, Courses: ids[lo:len(ids):len(ids)]}
	}
	return out
}

// Write serialises transcripts in the dump format Parse reads:
//
//	student: S001
//	Fall 2012: COSI 11A, COSI 29A
//	Spring 2013:
//	...
func Write(w io.Writer, trs []Transcript) error {
	for i, tr := range trs {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "student: %s\n", tr.Student); err != nil {
			return err
		}
		for _, e := range tr.Entries {
			if _, err := fmt.Fprintf(w, "%s: %s\n", e.Term.Label(), strings.Join(e.Courses, ", ")); err != nil {
				return err
			}
		}
	}
	return nil
}

// Parse reads the Write format. Blank lines separate students; '#' lines
// are comments.
func Parse(r io.Reader, cal *term.Calendar) ([]Transcript, error) {
	var out []Transcript
	var cur *Transcript
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
			cur = nil
		}
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			flush()
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("transcript: line %d: want \"key: value\", got %q", lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if strings.EqualFold(key, "student") {
			flush()
			cur = &Transcript{Student: val}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("transcript: line %d: entry before student:", lineNo)
		}
		tm, err := term.Parse(cal, key)
		if err != nil {
			return nil, fmt.Errorf("transcript: line %d: %v", lineNo, err)
		}
		var courses []string
		if val != "" {
			for _, c := range strings.Split(val, ",") {
				courses = append(courses, strings.TrimSpace(c))
			}
		}
		cur.Entries = append(cur.Entries, Entry{Term: tm, Courses: courses})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("transcript: %v", err)
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("transcript: empty input")
	}
	return out, nil
}
