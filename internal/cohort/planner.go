package cohort

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro"
)

// NavPlanner executes cohort units directly on façade navigators — the
// in-process substrate the CLI and tests use. Counting units are
// memoised by (variant, position, deadline), so members sharing a
// canonical sub-request reuse each other's results just like the
// server's result cache would (CountResult.Reused reports it). The
// planner is safe for concurrent use: the memo and goal tables are
// mutex-guarded, and the underlying façade calls are read-only against
// their catalogs.
type NavPlanner struct {
	// Base, Scenario and Samples are the catalog variants; Scenario may
	// equal Base for an empty scenario.
	Base     *coursenav.Navigator
	Scenario *coursenav.Navigator
	Samples  []*coursenav.Navigator
	// MakeGoal builds the goal against one variant's catalog (goals are
	// catalog-bound, so each variant needs its own).
	MakeGoal func(*coursenav.Navigator) (coursenav.Goal, error)
	// MaxPerTerm bounds elections per semester in every unit.
	MaxPerTerm int

	mu    sync.Mutex
	memo  map[string]CountResult
	memoH map[string]HorizonCounts
	goals map[*coursenav.Navigator]coursenav.Goal
}

func (p *NavPlanner) nav(v Variant) (*coursenav.Navigator, string, error) {
	switch v.Kind {
	case KindScenario:
		return p.Scenario, "s", nil
	case KindBase:
		return p.Base, "b", nil
	case KindSample:
		if v.Sample < 0 || v.Sample >= len(p.Samples) {
			return nil, "", fmt.Errorf("cohort: sample %d out of range", v.Sample)
		}
		return p.Samples[v.Sample], fmt.Sprintf("m%d", v.Sample), nil
	}
	return nil, "", fmt.Errorf("cohort: unknown variant kind %d", v.Kind)
}

func (p *NavPlanner) goalFor(nav *coursenav.Navigator) (coursenav.Goal, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if g, ok := p.goals[nav]; ok {
		return g, nil
	}
	g, err := p.MakeGoal(nav)
	if err != nil {
		return coursenav.Goal{}, err
	}
	if p.goals == nil {
		p.goals = map[*coursenav.Navigator]coursenav.Goal{}
	}
	p.goals[nav] = g
	return g, nil
}

// completedKey renders a member's completed set for memo keys in the
// same canonical form the server derives cache keys from: catalog
// spellings, sorted, duplicates dropped. Permuted or duplicated inputs
// describe the same position, so they must hit the same memo entry (a
// plain strings.Join over the raw slice would miss).
func completedKey(nav *coursenav.Navigator, completed []string) string {
	ids := make([]string, len(completed))
	for i, id := range completed {
		if c, ok := nav.CanonicalCourse(id); ok {
			ids[i] = c
		} else {
			ids[i] = id
		}
	}
	sort.Strings(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return strings.Join(out, ",")
}

// Count implements Planner on the façade's counting engine.
func (p *NavPlanner) Count(ctx context.Context, m Member, end string, v Variant) (CountResult, error) {
	nav, vid, err := p.nav(v)
	if err != nil {
		return CountResult{}, err
	}
	key := vid + "|" + end + "|" + m.Start + "|" + completedKey(nav, m.Completed)
	p.mu.Lock()
	c, ok := p.memo[key]
	p.mu.Unlock()
	if ok {
		c.Reused = true
		return c, nil
	}
	goal, err := p.goalFor(nav)
	if err != nil {
		return CountResult{}, err
	}
	sum, err := nav.Count(ctx, coursenav.Query{
		Completed:  m.Completed,
		Start:      m.Start,
		End:        end,
		MaxPerTerm: p.MaxPerTerm,
		Goal:       goal,
	})
	if err != nil {
		return CountResult{}, err
	}
	c = CountResult{GoalPaths: sum.GoalPaths, Stopped: sum.Stopped}
	if c.Stopped == "" {
		p.mu.Lock()
		if p.memo == nil {
			p.memo = map[string]CountResult{}
		}
		p.memo[key] = c
		p.mu.Unlock()
	}
	return c, nil
}

// CountHorizons implements Planner on the façade's multi-deadline
// counting query: one run answers every deadline in [end, end+horizon].
func (p *NavPlanner) CountHorizons(ctx context.Context, m Member, end string, horizon int, v Variant) (HorizonCounts, error) {
	nav, vid, err := p.nav(v)
	if err != nil {
		return HorizonCounts{}, err
	}
	key := "mh" + strconv.Itoa(horizon) + "|" + vid + "|" + end + "|" + m.Start + "|" + completedKey(nav, m.Completed)
	p.mu.Lock()
	c, ok := p.memoH[key]
	p.mu.Unlock()
	if ok {
		c.Reused = true
		return c, nil
	}
	goal, err := p.goalFor(nav)
	if err != nil {
		return HorizonCounts{}, err
	}
	sum, err := nav.Count(ctx, coursenav.Query{
		Completed:  m.Completed,
		Start:      m.Start,
		End:        end,
		MaxPerTerm: p.MaxPerTerm,
		Goal:       goal,
		Horizon:    horizon,
	})
	if err != nil {
		return HorizonCounts{}, err
	}
	c = HorizonCounts{GoalPaths: sum.GoalPathsAt, Stopped: sum.Stopped}
	if c.Stopped == "" {
		p.mu.Lock()
		if p.memoH == nil {
			p.memoH = map[string]HorizonCounts{}
		}
		p.memoH[key] = c
		p.mu.Unlock()
	}
	return c, nil
}

// navReplanBody mirrors the server whatif response shape so CLI records
// read the same as API ones.
type navReplanBody struct {
	Selections []coursenav.SelectionImpact `json:"selections"`
	Stopped    string                      `json:"stopped,omitempty"`
}

// Replan implements Planner: the member's next-semester selection
// comparison against the scenario catalog.
func (p *NavPlanner) Replan(ctx context.Context, m Member, end string) (Replan, error) {
	goal, err := p.goalFor(p.Scenario)
	if err != nil {
		return Replan{}, err
	}
	impacts, stopped, err := p.Scenario.WhatIf(ctx, coursenav.Query{
		Completed:  m.Completed,
		Start:      m.Start,
		End:        end,
		MaxPerTerm: p.MaxPerTerm,
		Goal:       goal,
	})
	if err != nil {
		return Replan{}, err
	}
	body, err := json.Marshal(navReplanBody{Selections: impacts, Stopped: stopped})
	if err != nil {
		return Replan{}, err
	}
	return Replan{Body: body}, nil
}
