// The overload suite: cost-aware admission (queue, costly shed, queue
// timeout, honest Retry-After), brownout degradation (stale serving,
// budget clamps, the health surface) and the stats counters that make
// all of it observable.
package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

const cheapCountBody = `{"query":{"start":"Fall 2013","end":"Spring 2014","maxPerTerm":1,"countOnly":true}}`

// costlyBody prices far above the default 250ms costly threshold: 9
// two-season terms at branching 4 seed to 0.5*4^9 ms.
const costlyBody = `{"query":{"start":"Fall 2011","end":"Fall 2015","maxPerTerm":3}}`

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A cheap request arriving at a saturated pool queues instead of
// shedding, and completes once a slot frees.
func TestQueueAdmitsCheapWhenSlotFrees(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	release, ok := s.acquire()
	if !ok {
		t.Fatal("could not take the only slot")
	}

	type reply struct {
		status int
		body   []byte
	}
	done := make(chan reply, 1)
	go func() {
		resp, body := post(t, ts, "/api/v1/explore/deadline", cheapCountBody)
		done <- reply{resp.StatusCode, body}
	}()
	waitFor(t, 2*time.Second, func() bool { return s.adm().Snapshot().Waiters == 1 }, "the request to queue")
	release()
	got := <-done
	if got.status != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200 (%s)", got.status, got.body)
	}
	if n := s.adm().Snapshot().Queued; n != 1 {
		t.Errorf("controller queued counter = %d, want 1", n)
	}
	// The queue admit is visible in the stats counters.
	if _, stats := get(t, ts, "/api/v1/stats"); !strings.Contains(string(stats), `"queued":1`) {
		t.Errorf("stats does not count the queued admit: %s", stats)
	}
}

// An expensive uncached request arriving at a saturated pool is shed at
// once — 429 overloaded with an honest Retry-After — while the system
// is merely pressured, not yet degraded.
func TestShedCostlyUnderPressure(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	release, _ := s.acquire()
	defer release()

	resp, body := post(t, ts, "/api/v1/explore/deadline", costlyBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("costly shed status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeOverloaded {
		t.Errorf("costly shed envelope = %s (err %v), want code %q", body, err, CodeOverloaded)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	if n := s.adm().Snapshot().ShedCostly; n != 1 {
		t.Errorf("shedCostly counter = %d, want 1", n)
	}
	if _, stats := get(t, ts, "/api/v1/stats"); !strings.Contains(string(stats), `"shedCostly":1`) {
		t.Errorf("stats does not count the costly shed: %s", stats)
	}
}

// A queued request whose wait exceeds the queue timeout is answered
// 503 queue_timeout, with Retry-After still honest.
func TestQueueTimeoutAnswers503(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	s.QueueTimeout = 30 * time.Millisecond
	release, _ := s.acquire()
	defer release()

	resp, body := post(t, ts, "/api/v1/explore/deadline", cheapCountBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue timeout status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeQueueTimeout {
		t.Errorf("queue timeout envelope = %s (err %v), want code %q", body, err, CodeQueueTimeout)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue timeout response missing Retry-After")
	}
	if _, stats := get(t, ts, "/api/v1/stats"); !strings.Contains(string(stats), `"queueTimeouts":1`) {
		t.Errorf("stats does not count the queue timeout: %s", stats)
	}
}

// forceDegraded latches the controller's degraded state by saturating
// the pool and shedding one costly request. The returned release frees
// the held slot.
func forceDegraded(t *testing.T, s *Server, ts *httptest.Server) (release func()) {
	t.Helper()
	release, ok := s.acquire()
	if !ok {
		t.Fatal("could not saturate the pool")
	}
	if resp, _ := post(t, ts, "/api/v1/explore/deadline", costlyBody); resp.StatusCode != 429 && resp.StatusCode != 503 {
		t.Fatalf("costly probe was not shed: %d", resp.StatusCode)
	}
	if !s.degradedNow() {
		t.Fatal("shed did not latch the degraded state")
	}
	return release
}

// While degraded, a cache miss whose request was cached in the previous
// snapshot generation is served stale — X-Cache: stale, degraded:true
// in the body — instead of shed, and the service returns to fresh
// serving once the degrade hold expires.
func TestBrownoutServesStaleThenRecovers(t *testing.T) {
	s := New(navFromDump(t, reloadDumpSmall))
	s.MaxConcurrent = 1
	s.BrownoutHold = 300 * time.Millisecond
	s.Loader = func() (*coursenav.Navigator, *coursenav.ImportReport, error) {
		return navFromDump(t, reloadDumpSmall), nil, nil
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	body := `{"query":{"start":"Fall 2012","end":"Fall 2013","maxPerTerm":1}}`

	// Populate the cache at generation 0, then reload: the entry moves to
	// the stale side table of generation 1.
	if resp, b := post(t, ts, "/api/v1/explore/deadline", body); resp.StatusCode != 200 {
		t.Fatalf("priming request: %d (%s)", resp.StatusCode, b)
	}
	if resp, b := postReload(t, ts); resp.StatusCode != 200 {
		t.Fatalf("reload: %d (%s)", resp.StatusCode, b)
	}

	release := forceDegraded(t, s, ts)
	resp, b := post(t, ts, "/api/v1/explore/deadline", body)
	release()
	if resp.StatusCode != 200 {
		t.Fatalf("degraded miss status = %d, want 200 stale serve (%s)", resp.StatusCode, b)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "stale" {
		t.Fatalf("X-Cache = %q, want stale", xc)
	}
	var payload map[string]interface{}
	if err := json.Unmarshal(b, &payload); err != nil {
		t.Fatalf("stale body is not well-formed JSON: %v", err)
	}
	if d, _ := payload["degraded"].(bool); !d {
		t.Errorf("stale body missing degraded:true: %s", b)
	}
	if _, ok := payload["summary"]; !ok {
		t.Errorf("stale body lost the original envelope: %s", b)
	}
	if _, stats := get(t, ts, "/api/v1/stats"); !strings.Contains(string(stats), `"staleServed":1`) {
		t.Errorf("stats does not count the stale serve: %s", stats)
	}

	// Recovery: once the hold expires the same request is served fresh
	// (computed, or coalesced with/answered by the background
	// revalidation) — no stale marker, no degraded flag.
	waitFor(t, 2*time.Second, func() bool { return !s.degradedNow() }, "the degrade hold to expire")
	resp, b = post(t, ts, "/api/v1/explore/deadline", body)
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery status = %d (%s)", resp.StatusCode, b)
	}
	if xc := resp.Header.Get("X-Cache"); xc == "stale" {
		t.Error("still serving stale after the degrade hold expired")
	}
	if strings.Contains(string(b), `"degraded":true`) {
		t.Errorf("post-recovery body still degraded: %s", b)
	}
}

// A stale serve's background revalidation is admitted like any other
// exploration, tenant quota included: with the tenant holding its only
// quota slot, the stale answer still goes out but nothing is computed
// behind it, even though a global slot is free.
func TestBrownoutRevalidateRespectsTenantQuota(t *testing.T) {
	s := New(navFromDump(t, reloadDumpSmall))
	s.MaxConcurrent = 1
	s.TenantMaxConcurrent = 1
	s.BrownoutHold = 5 * time.Second
	s.Loader = func() (*coursenav.Navigator, *coursenav.ImportReport, error) {
		return navFromDump(t, reloadDumpSmall), nil, nil
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	body := `{"query":{"start":"Fall 2012","end":"Fall 2013","maxPerTerm":1}}`
	if resp, b := post(t, ts, "/api/v1/explore/deadline", body); resp.StatusCode != 200 {
		t.Fatalf("priming request: %d (%s)", resp.StatusCode, b)
	}
	if resp, b := postReload(t, ts); resp.StatusCode != 200 {
		t.Fatalf("reload: %d (%s)", resp.StatusCode, b)
	}

	// Latch the degraded state, then free the global slot and take the
	// tenant's only quota slot instead.
	forceDegraded(t, s, ts)()
	relQuota, ok := s.defaultTenant().acquireQuota()
	if !ok {
		t.Fatal("could not take the tenant's quota slot")
	}
	defer relQuota()

	resp, b := post(t, ts, "/api/v1/explore/deadline", body)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "stale" {
		t.Fatalf("degraded miss: %d X-Cache=%q, want 200 stale (%s)", resp.StatusCode, resp.Header.Get("X-Cache"), b)
	}
	// An admitted revalidation of this tiny window finishes in well under
	// a millisecond and publishes a live entry; none may appear.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := s.Cache.Stats().Entries; n != 0 {
			t.Fatalf("background revalidation ran past the tenant quota: %d live entries", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// While degraded, admitted explorations run under clamped budgets and
// return well-formed partial results instead of holding slots.
func TestDegradedClampsBudgets(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	s.DegradedMaxNodes = 3

	release := forceDegraded(t, s, ts)
	release() // free the slot: this request must be ADMITTED, just clamped
	resp, body := post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":2}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("degraded admitted run status = %d, want 200 partial (%s)", resp.StatusCode, body)
	}
	var payload struct {
		Summary summaryBody `json:"summary"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("partial result is not well-formed: %v (%s)", err, body)
	}
	if payload.Summary.Stopped != "max-nodes" || !payload.Summary.Truncated {
		t.Errorf("summary = %+v, want a max-nodes-truncated partial result", payload.Summary)
	}
}

// The healthz surface: ok on a calm server, degraded after a shed, ok
// again once the hold expires.
func TestHealthzReportsBrownoutState(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	s.BrownoutHold = 100 * time.Millisecond

	var hb healthBody
	if _, b := get(t, ts, "/api/v1/healthz"); json.Unmarshal(b, &hb) != nil || hb.State != "ok" {
		t.Fatalf("calm healthz state = %q, want ok", hb.State)
	}
	if len(hb.Tenants) != 1 || hb.Tenants[0].Breaker != "closed" {
		t.Errorf("calm tenants = %+v, want one closed default row", hb.Tenants)
	}

	release := forceDegraded(t, s, ts)
	hb = healthBody{}
	if _, b := get(t, ts, "/api/v1/healthz"); json.Unmarshal(b, &hb) != nil || hb.State != "degraded" {
		t.Errorf("post-shed healthz state = %q, want degraded", hb.State)
	}
	if hb.Admission.ShedCostly != 1 {
		t.Errorf("healthz admission snapshot shedCostly = %d, want 1", hb.Admission.ShedCostly)
	}
	release()

	waitFor(t, 2*time.Second, func() bool {
		hb = healthBody{}
		_, b := get(t, ts, "/api/v1/healthz")
		return json.Unmarshal(b, &hb) == nil && hb.State == "ok"
	}, "healthz to return to ok")
}

// Guard: the overload counters are always present in /api/v1/stats —
// zero-valued, never omitted — alongside the health and admission
// fields dashboards key off.
func TestStatsOverloadCountersAlwaysPresent(t *testing.T) {
	_, ts := newV1Server(t)
	_, body := get(t, ts, "/api/v1/stats")
	for _, key := range []string{
		`"queued":0`, `"shedCostly":0`, `"shedQueueFull":0`,
		`"queueTimeouts":0`, `"staleServed":0`, `"breakerOpen":0`,
		`"cohortJobs":0`, `"cohortMembers":0`, `"cohortCancelled":0`,
		`"cohortCoalesced":0`, `"cohortSharedHits":0`, `"cohortDPReused":0`,
		`"health":"ok"`, `"admission":{`,
	} {
		if !strings.Contains(string(body), key) {
			t.Errorf("stats missing %s: %s", key, body)
		}
	}
}

// The acceptance scenario: with the pool saturated, cheap cached
// requests keep completing (hits bypass admission) while expensive
// uncached ones are shed — capacity under overload goes to the
// interactive workload.
func TestOverloadMixCheapCachedServeExpensiveShed(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	if resp, b := post(t, ts, "/api/v1/explore/deadline", cheapCountBody); resp.StatusCode != 200 {
		t.Fatalf("priming request: %d (%s)", resp.StatusCode, b)
	}

	release, _ := s.acquire()
	defer release()
	for i := 0; i < 10; i++ {
		resp, b := post(t, ts, "/api/v1/explore/deadline", cheapCountBody)
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("cached request %d under saturation: %d X-Cache=%q (%s)",
				i, resp.StatusCode, resp.Header.Get("X-Cache"), b)
		}
		if resp, _ := post(t, ts, "/api/v1/explore/deadline", costlyBody); resp.StatusCode != 429 && resp.StatusCode != 503 {
			t.Fatalf("expensive request %d was not shed: %d", i, resp.StatusCode)
		}
	}
}

// BenchmarkOverloadCachedHits measures the cached fast path while the
// pool is fully saturated — the capacity the admission design preserves
// for the interactive workload under overload.
func BenchmarkOverloadCachedHits(b *testing.B) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	s.MaxConcurrent = 1
	ts := httptest.NewServer(s)
	defer ts.Close()
	prime := func() int {
		resp, err := http.Post(ts.URL+"/api/v1/explore/deadline", "application/json", strings.NewReader(cheapCountBody))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := prime(); st != 200 {
		b.Fatalf("priming request: %d", st)
	}
	release, _ := s.acquire()
	defer release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := prime(); st != 200 {
			b.Fatalf("cached hit under saturation: %d", st)
		}
	}
}
