package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/tenant"
)

// coldTestSize keeps the plan-cold tests quick; the generator's
// behaviour does not depend on the list length beyond where it stops.
const coldTestSize = 1500

func newTestGenerator(t *testing.T, seed int64, salt string) *generator {
	t.Helper()
	nav, err := newNavigator()
	if err != nil {
		t.Fatal(err)
	}
	return newGenerator(nav, seed, salt)
}

// flatten renders a plan's inputs as bytes for comparison.
func flatten(p *plan) []byte {
	var b bytes.Buffer
	for _, list := range [][]request{p.warm, p.stream} {
		for _, r := range list {
			b.WriteString(r.tenant + " " + r.path + " " + r.key + " ")
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	for _, list := range [][]cohortJob{p.jobs, p.probes} {
		for _, j := range list {
			b.WriteString(j.kind + " " + j.path() + " ")
			b.Write(j.body(0))
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func plansFor(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, wl := range []string{wlBrowse, wlCohort} {
		nav, err := newNavigator()
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildPlan(nav, wl, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[wl] = flatten(p)
	}
	g := newTestGenerator(t, seed, wlPlan)
	p := coldPlan(g, coldTestSize)
	p.probes = g.cohortJobs(probeJobs)
	out[wlPlan] = flatten(p)
	return out
}

func TestEqualSeedsGiveIdenticalInputs(t *testing.T) {
	a, b, c := plansFor(t, 7), plansFor(t, 7), plansFor(t, 8)
	for wl := range a {
		if !bytes.Equal(a[wl], b[wl]) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", wl)
		}
		if bytes.Equal(a[wl], c[wl]) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", wl)
		}
	}
}

func TestPlanColdHasNoCanonicalDuplicates(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		p := coldPlan(newTestGenerator(t, seed, wlPlan), coldTestSize)
		seen := map[string]bool{}
		for _, r := range append(append([]request(nil), p.warm...), p.stream...) {
			if seen[r.key] {
				t.Fatalf("seed %d: canonical duplicate %s", seed, r.key)
			}
			seen[r.key] = true
		}
		if len(seen) != coldTestSize+planWarm {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(seen), coldTestSize+planWarm)
		}
	}
}

// testServer is a server with the benchmark's tenants, driven through
// its handler without a network.
func testServer(t *testing.T) *server.Server {
	t.Helper()
	nav, err := newNavigator()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(nav)
	var m tenant.Manifest
	for _, id := range registeredTenants {
		m.Tenants = append(m.Tenants, tenant.Spec{ID: id})
	}
	for _, st := range s.LoadTenants(m, "") {
		if !st.OK {
			t.Fatalf("tenant %s: %s", st.Tenant, st.Reason)
		}
	}
	return s
}

func serve(s *server.Server, r *request) *httptest.ResponseRecorder {
	method := http.MethodGet
	if r.body != nil {
		method = http.MethodPost
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, r.path, bytes.NewReader(r.body)))
	return rec
}

func TestBrowsePoolFitsTenantCacheShare(t *testing.T) {
	s := testServer(t)
	share := int64(server.DefaultCacheBytes) / int64(len(registeredTenants)+1)
	for _, seed := range []int64{1, 2, 3} {
		nav, err := newNavigator()
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildPlan(nav, wlBrowse, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		bytesPer := map[string]int64{}
		for i := range p.warm {
			r := &p.warm[i]
			rec := serve(s, r)
			if rec.Code != http.StatusOK {
				t.Fatalf("seed %d: %s: status %d %s", seed, r.path, rec.Code, rec.Body)
			}
			if r.ep == epOptions {
				continue // not a cached route
			}
			if rec.Body.Len() > 1<<20 {
				t.Errorf("seed %d: %s answers %d bytes, over the 1 MiB cacheable limit", seed, r.key, rec.Body.Len())
			}
			bytesPer[r.tenant] += int64(rec.Body.Len())
		}
		for tn, b := range bytesPer {
			if b > share/2 {
				t.Errorf("seed %d: tenant %q pool holds %d bytes, over half its %d-byte cache share", seed, tn, b, share)
			}
		}
	}
}

func TestGeneratedRequestsAreAccepted(t *testing.T) {
	s := testServer(t)
	g := newTestGenerator(t, 3, wlPlan)
	p := coldPlan(g, 600)
	for _, r := range append(p.warm, p.stream...) {
		if rec := serve(s, &r); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d %s", r.path, r.body, rec.Code, rec.Body)
		}
	}
	for _, j := range g.cohortJobs(4) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, j.path(), bytes.NewReader(j.body(0))))
		body := rec.Body.String()
		if rec.Code != http.StatusOK || strings.Contains(body, `"error"`) {
			t.Fatalf("cohort job %s: status %d %s", j.kind, rec.Code, body[:min(len(body), 400)])
		}
		if n := strings.Count(body, `{"member"`); n != j.members {
			t.Fatalf("cohort job %s: %d member records, want %d", j.kind, n, j.members)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if got, want := []float64{q1, q2, q3}, []float64{2.75, 5.5, 8.25}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}
