package main

// The oracle: every HTTP answer is checked against a direct call on a
// separate in-process Navigator built from the same catalog source. The
// check covers the serving layers (canonicalisation, tenant routing,
// cache replay, rendering) byte for byte where the body is
// deterministic, and field by field in the summary, whose elapsedMs
// differs from run to run. Because that call runs the same engine as
// the server, goal counts and goal graphs are also counted by the other
// engine (DAG against tree walk) and the totals must agree.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"

	"repro"
	"repro/internal/server"
)

// summaryFields mirrors the server's summary JSON.
type summaryFields struct {
	Paths       int64   `json:"paths"`
	GoalPaths   int64   `json:"goalPaths"`
	Nodes       int64   `json:"nodes"`
	Edges       int64   `json:"edges"`
	PrunedTime  int64   `json:"prunedTime"`
	PrunedAvail int64   `json:"prunedAvail"`
	ElapsedMs   float64 `json:"elapsedMs"`
	Stopped     string  `json:"stopped,omitempty"`
	Truncated   bool    `json:"truncated,omitempty"`
	DAG         bool    `json:"dag,omitempty"`
}

func (s summaryFields) sameAnswer(o summaryFields) bool {
	s.ElapsedMs, o.ElapsedMs = 0, 0
	return s == o
}

func toSummary(sum coursenav.Summary) summaryFields {
	return summaryFields{
		Paths: sum.Paths, GoalPaths: sum.GoalPaths, Nodes: sum.Nodes, Edges: sum.Edges,
		PrunedTime: sum.PrunedTime, PrunedAvail: sum.PrunedAvail,
		ElapsedMs: float64(sum.Elapsed.Microseconds()) / 1000,
		Stopped:   sum.Stopped, Truncated: sum.Truncated, DAG: sum.DAG,
	}
}

// expected is the oracle's answer to one canonical request.
type expected struct {
	summary  *summaryFields // endpoints whose body carries a summary
	tail     uint64         // hash of the deterministic remainder of the body
	negative bool           // some count is negative: an int64 wrap
	engines  string         // the two counting engines disagree on the query
	err      error
}

// crossMaxPaths bounds the windows on which a goal count is also taken
// by the tree walk: the goal-graph window bound, so the walk stays cheap.
const crossMaxPaths = graphMaxPaths

// crossCheck counts q's paths with the engine the answer did not use —
// the tree walk (GoalPathsCtx) for a DAG count, the DAG
// (GoalPathsCountCtx) for a goal graph — and returns "" when both
// engines agree on the path and goal-path totals. The server and the
// oracle share internal/explore, so this is the check that can fail
// when a counting kernel is wrong.
func (o *oracle) crossCheck(q coursenav.Query, goal coursenav.Goal, sum coursenav.Summary, dag bool) string {
	if sum.Stopped != "" || sum.Truncated {
		return ""
	}
	var other coursenav.Summary
	var err error
	if dag {
		if sum.Paths > crossMaxPaths {
			return ""
		}
		_, other, err = o.nav.GoalPathsCtx(context.Background(), q, goal)
	} else {
		other, err = o.nav.GoalPathsCountCtx(context.Background(), q, goal)
	}
	switch {
	case err != nil:
		return "second engine failed: " + err.Error()
	case other.Stopped != "" || other.Truncated:
		return ""
	case other.Paths != sum.Paths || other.GoalPaths != sum.GoalPaths:
		return fmt.Sprintf("DAG and tree walk disagree: %d/%d and %d/%d paths/goal paths", sum.Paths, sum.GoalPaths, other.Paths, other.GoalPaths)
	}
	return ""
}

type oracle struct {
	nav *coursenav.Navigator
}

func oracleQuery(q query) coursenav.Query {
	return coursenav.Query{
		Completed: q.Completed, Start: q.Start, End: q.End,
		MaxPerTerm: q.MaxPerTerm, MaxNodes: server.DefaultNodeBudget,
	}
}

// encode renders v exactly as the server's writeJSON does.
func encode(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// whatIfBody mirrors the server's what-if response.
type whatIfBody struct {
	Selections []coursenav.SelectionImpact `json:"selections"`
	Stopped    string                      `json:"stopped,omitempty"`
}

// rankedBody mirrors the server's ranked response.
type rankedBody struct {
	Summary summaryFields    `json:"summary"`
	Paths   []coursenav.Path `json:"paths"`
}

// retallyCheck compares the what-if retally's goal paths, summed over
// the start semester's selections, with the DAG's goal count: every
// goal path begins with exactly one of those selections.
func (o *oracle) retallyCheck(q coursenav.Query, goal coursenav.Goal, goalPaths int64) string {
	sum, err := o.nav.GoalPathsCountCtx(context.Background(), q, goal)
	switch {
	case err != nil:
		return "DAG count failed: " + err.Error()
	case sum.Stopped != "" || sum.Truncated:
		return ""
	case sum.GoalPaths != goalPaths:
		return fmt.Sprintf("what-if selections sum to %d goal paths, the DAG counts %d", goalPaths, sum.GoalPaths)
	}
	return ""
}

// expect answers r's canonical form on the oracle navigator.
func (o *oracle) expect(r *request) expected {
	ctx := context.Background()
	q := oracleQuery(r.q)
	var goal coursenav.Goal
	if r.ep != epOptions {
		g, err := o.nav.GoalCourses(r.q.Goal...)
		if err != nil {
			return expected{err: err}
		}
		goal = g
	}
	var e expected
	switch r.ep {
	case epOptions:
		opts, err := o.nav.FeasibleNow(r.q.Completed, r.q.Start)
		if err != nil {
			return expected{err: err}
		}
		e.tail = maphash.Bytes(hashSeed, encode(map[string]any{"options": opts}))
	case epGoalCount:
		sum, err := o.nav.GoalPathsCountCtx(ctx, q, goal)
		if err != nil {
			return expected{err: err}
		}
		s := toSummary(sum)
		e.summary = &s
		e.engines = o.crossCheck(q, goal, sum, true)
	case epRanked:
		paths, sum, err := o.nav.TopKCtx(ctx, q, goal, r.q.Ranking, rankedK)
		if err != nil {
			return expected{err: err}
		}
		s := toSummary(sum)
		e.summary = &s
		body := encode(rankedBody{Summary: s, Paths: paths})
		e.tail = maphash.Bytes(hashSeed, body[bytes.Index(body, []byte(`,"paths":`)):])
	case epWhatIf:
		impacts, stopped, err := o.nav.CompareSelectionsCtx(ctx, q, goal)
		if err != nil {
			return expected{err: err}
		}
		var goalPaths int64
		for _, imp := range impacts {
			if imp.GoalPaths < 0 || imp.Paths < 0 {
				e.negative = true
			}
			goalPaths += imp.GoalPaths
		}
		if stopped == "" {
			e.engines = o.retallyCheck(q, goal, goalPaths)
		}
		e.tail = maphash.Bytes(hashSeed, encode(whatIfBody{Selections: impacts, Stopped: stopped}))
	case epGoalGraph:
		g, sum, err := o.nav.GoalPathsCtx(ctx, q, goal)
		if err != nil {
			return expected{err: err}
		}
		s := toSummary(sum)
		e.summary = &s
		e.engines = o.crossCheck(q, goal, sum, false)
		var b bytes.Buffer
		b.WriteString(`,"graph":`)
		if err := g.WriteJSON(&b, server.DefaultMaxResponseNodes); err != nil {
			return expected{err: err}
		}
		if g.Stats().Nodes > server.DefaultMaxResponseNodes {
			b.WriteString(`,"truncated":true`)
		}
		b.WriteString("}\n")
		e.tail = maphash.Bytes(hashSeed, b.Bytes())
	}
	if e.summary != nil && (e.summary.Paths < 0 || e.summary.GoalPaths < 0) {
		e.negative = true
	}
	return e
}

// verdict compares one distinct answer with the oracle's and returns ""
// when they agree.
func verdict(r *request, a *answer, e *expected) string {
	if a.errMsg != "" {
		return fmt.Sprintf("status %d: %s", a.status, a.errMsg)
	}
	if e.err != nil {
		return "oracle rejected the request: " + e.err.Error()
	}
	if e.negative {
		return "negative count from the oracle: int64 wrap"
	}
	if e.engines != "" {
		return e.engines
	}
	if e.summary != nil {
		got, ok := parseSummary(r.ep, a.prefix)
		if !ok {
			return fmt.Sprintf("unparseable summary %q", a.prefix)
		}
		if got.Paths < 0 || got.GoalPaths < 0 {
			return "negative count in the answer: int64 wrap"
		}
		if !got.sameAnswer(*e.summary) {
			return fmt.Sprintf("summary %+v, oracle %+v", got, *e.summary)
		}
	}
	if a.tail != e.tail {
		return "body differs from the oracle's rendering"
	}
	return ""
}

// parseSummary decodes the summary from a reply's kept prefix.
func parseSummary(ep endpoint, prefix []byte) (summaryFields, bool) {
	doc := prefix
	if ep != epGoalCount {
		doc = append(bytes.Clone(prefix), '}')
	}
	var got struct {
		Summary summaryFields `json:"summary"`
	}
	err := json.Unmarshal(doc, &got)
	return got.Summary, err == nil
}

// checkAnswers answers every distinct canonical request once, in
// parallel, and returns the number of replies that disagree, logging
// the first few. requestAt maps an answer's idx to its request.
func (o *oracle) checkAnswers(tallies []*tally, requestAt func(int) *request, logf func(string, ...any)) int {
	type item struct {
		r *request
		a *answer
	}
	var items []item
	index := map[string]int{}
	var order []*request
	for _, t := range tallies {
		for _, a := range t.answers {
			r := requestAt(a.idx)
			items = append(items, item{r, a})
			if _, ok := index[r.key]; !ok {
				index[r.key] = len(order)
				order = append(order, r)
			}
		}
	}
	answers := make([]expected, len(order))
	parallel(len(order), func(i int) { answers[i] = o.expect(order[i]) })
	bad, logged := 0, 0
	for _, it := range items {
		if v := verdict(it.r, it.a, &answers[index[it.r.key]]); v != "" {
			bad += it.a.count
			if logged++; logged <= 5 {
				logf("oracle mismatch on %d replies to %s %s body %s: %s", it.a.count, it.r.ep, it.r.path, it.r.body, v)
			}
		}
	}
	return bad
}
