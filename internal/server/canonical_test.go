package server

import (
	"crypto/sha256"
	"net/http"
	"testing"

	"repro"
	"repro/internal/resultcache"
	"repro/internal/tenant"
)

// canonKey canonicalizes req against the server's snapshot and derives
// both of its keys — the cache key and the admission cost key — from
// the default tenant, failing the test when either is unusable.
func canonKey(t *testing.T, s *Server, endpoint string, req *ExploreRequest) (resultcache.Key, [sha256.Size]byte) {
	t.Helper()
	canonicalize(s.Navigator(), req)
	k := s.defaultTenant().unitKey(0, endpoint, req)
	cost, ok := k.costKey(tenant.Default)
	if k.cache == nil || !ok {
		t.Fatal("unitKey unusable on a cache-enabled server")
	}
	return k.key, cost
}

// assertSeparate fails the test unless the two requests differ in their
// cache key and, checked on its own, in their cost key.
func assertSeparate(t *testing.T, s *Server, what, endpointA string, a *ExploreRequest, endpointB string, b *ExploreRequest) {
	t.Helper()
	keyA, costA := canonKey(t, s, endpointA, a)
	keyB, costB := canonKey(t, s, endpointB, b)
	if keyA == keyB {
		t.Fatalf("%s share a cache key", what)
	}
	if costA == costB {
		t.Fatalf("%s share a cost key", what)
	}
}

// TestCanonicalKeyEquality: requests that differ only in list order,
// duplicate completed courses, ID case or surrounding whitespace hash to
// the same cache key.
func TestCanonicalKeyEquality(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	base := func() *ExploreRequest {
		return &ExploreRequest{
			Query: QuerySpec{
				Completed: []string{"COSI 11A", "COSI 21A"},
				Start:     "Fall 2013",
				End:       "Fall 2015",
				Avoid:     []string{"COSI 30A"},
			},
			Goal: &GoalSpec{Courses: []string{"COSI 127B", "COSI 130A"}},
		}
	}
	wantKey, wantCost := canonKey(t, s, "goal", base())
	variants := map[string]*ExploreRequest{
		"reordered completed": {
			Query: QuerySpec{Completed: []string{"COSI 21A", "COSI 11A"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"COSI 30A"}},
			Goal:  &GoalSpec{Courses: []string{"COSI 127B", "COSI 130A"}},
		},
		"duplicated completed": {
			Query: QuerySpec{Completed: []string{"COSI 11A", "COSI 21A", "COSI 11A"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"COSI 30A"}},
			Goal:  &GoalSpec{Courses: []string{"COSI 127B", "COSI 130A"}},
		},
		"case-folded ids": {
			Query: QuerySpec{Completed: []string{"cosi 11a", "Cosi 21a"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"cosi 30a"}},
			Goal:  &GoalSpec{Courses: []string{"cosi 127b", "COSI 130A"}},
		},
		"whitespace": {
			Query: QuerySpec{Completed: []string{" COSI 11A ", "COSI 21A"}, Start: "  Fall 2013", End: "Fall 2015  ", Avoid: []string{"COSI 30A "}},
			Goal:  &GoalSpec{Courses: []string{"COSI 127B", " COSI 130A"}},
		},
		"reordered goal courses": {
			Query: QuerySpec{Completed: []string{"COSI 11A", "COSI 21A"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"COSI 30A"}},
			Goal:  &GoalSpec{Courses: []string{"COSI 130A", "COSI 127B"}},
		},
	}
	for name, req := range variants {
		key, cost := canonKey(t, s, "goal", req)
		if key != wantKey {
			t.Errorf("%s: cache key diverged from base", name)
		}
		if cost != wantCost {
			t.Errorf("%s: cost key diverged from base", name)
		}
	}
	// The cost key ignores the snapshot generation: observed run times
	// outlive a reload, while cache entries do not.
	req := base()
	canonicalize(s.Navigator(), req)
	g0, g1 := s.defaultTenant().unitKey(0, "goal", req), s.defaultTenant().unitKey(1, "goal", req)
	c0, _ := g0.costKey(tenant.Default)
	c1, _ := g1.costKey(tenant.Default)
	if c0 != c1 {
		t.Error("cost key depends on the snapshot generation")
	}
	if g0.key == g1.key {
		t.Error("cache key ignores the snapshot generation")
	}
}

// TestCanonicalKeySeparation: requests that genuinely differ must not
// collide — and degree-group course lists keep their order (counted
// requirements are not set-semantic), so reordering one is a different
// key.
func TestCanonicalKeySeparation(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	a := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"}, Goal: &GoalSpec{Courses: []string{"COSI 11A"}}}
	b := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"}, Goal: &GoalSpec{Courses: []string{"COSI 21A"}}}
	assertSeparate(t, s, "different goals", "goal", a, "goal", b)
	g1 := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"},
		Goal: &GoalSpec{Degree: []coursenav.DegreeGroup{{Name: "core", Count: 1, Courses: []string{"COSI 11A", "COSI 21A"}}}}}
	g2 := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"},
		Goal: &GoalSpec{Degree: []coursenav.DegreeGroup{{Name: "core", Count: 1, Courses: []string{"COSI 21A", "COSI 11A"}}}}}
	assertSeparate(t, s, "reordered degree groups (group order is meaningful)", "goal", g1, "goal", g2)
	// The same canonical request under different endpoints never collides.
	c := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"}}
	assertSeparate(t, s, "endpoints", "deadline", c, "goal", c)
	// The estimator is one map across tenants, so the cost key carries
	// the tenant itself.
	k := s.defaultTenant().unitKey(0, "goal", c)
	own, _ := k.costKey(tenant.Default)
	other, _ := k.costKey("acme")
	if own == other {
		t.Fatal("tenants share a cost key")
	}
}

// TestCanonicalizePreservesSemantics: a messy request (case-folded,
// reordered, duplicated, padded) answers exactly like its clean form —
// canonicalization changed the spelling, not the exploration.
func TestCanonicalizePreservesSemantics(t *testing.T) {
	ts := newTestServer(t)
	clean := `{"query":{"completed":["COSI 11A","COSI 12B"],"start":"Fall 2013","end":"Fall 2014","maxPerTerm":2},` +
		`"goal":{"courses":["COSI 21A"]}}`
	messy := `{"query":{"completed":["cosi 12b"," COSI 11A","COSI 11A"],"start":" Fall 2013 ","end":"Fall 2014","maxPerTerm":2},` +
		`"goal":{"courses":[" cosi 21a "]}}`
	respClean, bodyClean := post(t, ts, "/api/v1/explore/goal", clean)
	respMessy, bodyMessy := post(t, ts, "/api/v1/explore/goal", messy)
	if respClean.StatusCode != http.StatusOK || respMessy.StatusCode != http.StatusOK {
		t.Fatalf("status: clean=%d messy=%d (%s)", respClean.StatusCode, respMessy.StatusCode, bodyMessy)
	}
	if maskElapsed(bodyClean) != maskElapsed(bodyMessy) {
		t.Errorf("messy request diverged from clean:\n clean: %s\n messy: %s", bodyClean, bodyMessy)
	}
	// The messy form canonicalizes onto the clean form's cache entry.
	if got := respMessy.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("messy request X-Cache = %q, want hit", got)
	}
}

// TestCanonicalizeUnknownCourse: an ID that resolves to nothing stays as
// typed and fails with the usual unknown-course error — which is never
// cached.
func TestCanonicalizeUnknownCourse(t *testing.T) {
	ts := newTestServer(t)
	body := `{"query":{"completed":["NOPE 999"],"start":"Fall 2013","end":"Fall 2014"}}`
	for i := 0; i < 2; i++ {
		resp, b := post(t, ts, "/api/v1/explore/deadline", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("round %d: status = %d, body %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("round %d: error response X-Cache = %q, want miss (errors are not cached)", i, got)
		}
	}
}
