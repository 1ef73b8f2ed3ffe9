package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/cohort"
	"repro/internal/term"
)

// benchBody is a moderately sized goal exploration: heavy enough that a
// cache hit is clearly distinguishable from recomputing, light enough to
// keep the cold benchmark iterable.
const benchBody = `{"query":{"completed":["COSI 11A","COSI 12B"],"start":"Fall 2013","end":"Fall 2015","maxPerTerm":2},` +
	`"goal":{"courses":["COSI 21A"]}}`

func newBenchServer(b *testing.B) *Server {
	b.Helper()
	nav, _ := coursenav.Brandeis()
	return New(nav)
}

func benchPost(b *testing.B, s *Server, wantCache string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/explore/goal", strings.NewReader(benchBody))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if wantCache != "" {
		if got := w.Result().Header.Get("X-Cache"); got != wantCache {
			b.Fatalf("X-Cache = %q, want %q", got, wantCache)
		}
	}
}

// BenchmarkExploreCold measures the uncached request path: every
// iteration invalidates the cache first, so the handler decodes,
// canonicalizes, misses, runs the exploration and renders the response.
func BenchmarkExploreCold(b *testing.B) {
	s := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache.Invalidate(0)
		benchPost(b, s, "miss")
	}
}

// BenchmarkExploreWarm measures a cache hit: the entry is primed once
// and every timed request replays the stored bytes.
func BenchmarkExploreWarm(b *testing.B) {
	s := newBenchServer(b)
	benchPost(b, s, "miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, s, "hit")
	}
}

// benchCohortBody replans a small cohort against a cancelled offering,
// with a detail replan per member so each member issues several units.
// Two members share a canonical position so the coalescing path is on
// the measured profile even cold.
const benchCohortBody = `{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},` +
	`"members":[{"student":"A","completed":["COSI 11A","COSI 12B"],"start":"Fall 2014"},` +
	`{"student":"B","completed":["COSI 12B","COSI 11A"],"start":"Fall 2014"},` +
	`{"student":"C","completed":["COSI 11A"],"start":"Spring 2014"},` +
	`{"student":"D","completed":[],"start":"Fall 2013"}],` +
	`"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":2},` +
	`"goal":{"courses":["COSI 21A"]},"baseline":true,"detail":true}`

func benchCohort(b *testing.B, s *Server) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/cohort", strings.NewReader(benchCohortBody))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkCohortReplanCold measures the full batch pipeline with an
// empty result cache each iteration: every member's units decode,
// canonicalize, pass admission and recompute.
func BenchmarkCohortReplanCold(b *testing.B) {
	s := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache.Invalidate(0)
		benchCohort(b, s)
	}
}

// BenchmarkCohortReplanWarm measures the cache-coalesced batch path:
// the first job primes every unit's entry, so each timed job answers
// all members from the result cache.
func BenchmarkCohortReplanWarm(b *testing.B) {
	s := newBenchServer(b)
	benchCohort(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCohort(b, s)
	}
}

// BenchmarkExploreCoalesced measures a thundering herd on a cold key:
// each iteration invalidates the cache and fires 8 identical requests
// concurrently, so one leader computes while the followers coalesce
// onto its flight (or hit the freshly stored entry).
func BenchmarkExploreCoalesced(b *testing.B) {
	const herd = 8
	s := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache.Invalidate(0)
		var wg sync.WaitGroup
		errs := make(chan error, herd)
		for j := 0; j < herd; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/api/v1/explore/goal", strings.NewReader(benchBody))
				req.Header.Set("Content-Type", "application/json")
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", w.Code, w.Body.String())
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// benchCohortSharedBody is a counting-heavy cohort: 300 members, delay
// probe on, no detail replans — the profile the shared DAG substrate
// (cross-member reuse + one-pass multi-horizon probe + parallel member
// pipeline) targets. The members are the cohort a
// {"synthesize":{"n":300,"seed":2}} job would synthesise, generated once
// and posted explicitly, so the benchmarks time counting, not member
// synthesis (BenchmarkCohortSynthesize in internal/cohort times that).
func benchCohortSharedBody(b *testing.B) string {
	b.Helper()
	nav, _ := coursenav.Brandeis()
	goal, err := nav.GoalExpr("COSI 21A and COSI 29A")
	if err != nil {
		b.Fatal(err)
	}
	cal := nav.Catalog().Calendar()
	start, _ := term.Parse(cal, "Fall 2013")
	end, _ := term.Parse(cal, "Fall 2015")
	members, err := cohort.Synthesize(nav.Catalog(), goal.Inner(), start, end, 3, 300, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	blob, err := json.Marshal(members)
	if err != nil {
		b.Fatal(err)
	}
	return `{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014","Fall 2014"]}]},` +
		`"members":` + string(blob) + `,` +
		`"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},` +
		`"goal":{"expr":"COSI 21A and COSI 29A"},"baseline":true,"horizon":2}`
}

func benchCohortShared(b *testing.B, s *Server, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/cohort", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkCohortSharedCold measures a counting-heavy cohort job with an
// empty result cache each iteration: every member's tallies come off the
// job's shared substrate, built across members inside the iteration.
func BenchmarkCohortSharedCold(b *testing.B) {
	s := newBenchServer(b)
	body := benchCohortSharedBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cache.Invalidate(0)
		benchCohortShared(b, s, body)
	}
}

// BenchmarkCohortSharedWarm measures the same job answered from the
// primed result cache (the substrate is per-job; the cache spans jobs).
func BenchmarkCohortSharedWarm(b *testing.B) {
	s := newBenchServer(b)
	body := benchCohortSharedBody(b)
	benchCohortShared(b, s, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCohortShared(b, s, body)
	}
}
