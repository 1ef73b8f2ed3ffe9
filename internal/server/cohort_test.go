package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/cohort"
)

// cohortLines splits a cohort NDJSON response into member records and
// the trailing summary, failing on malformed framing.
func cohortLines(t *testing.T, body []byte) ([]cohort.MemberRecord, cohort.Summary) {
	t.Helper()
	recs := ndjsonLines(t, body)
	if len(recs) == 0 {
		t.Fatal("empty cohort stream")
	}
	var members []cohort.MemberRecord
	var sum cohort.Summary
	for i, rec := range recs {
		if raw, ok := rec["member"]; ok {
			var m cohort.MemberRecord
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("member record %d: %v", i, err)
			}
			members = append(members, m)
			continue
		}
		if raw, ok := rec["summary"]; ok {
			if i != len(recs)-1 {
				t.Fatalf("summary record at line %d of %d, want last", i, len(recs))
			}
			if err := json.Unmarshal(raw, &sum); err != nil {
				t.Fatalf("summary record: %v", err)
			}
			continue
		}
		t.Fatalf("record %d is neither member nor summary: %v", i, rec)
	}
	return members, sum
}

// The cohort-of-1 equivalence guard: a single-member detail replan via
// the cohort pipeline is byte-identical to the interactive whatif
// response for the same position (modulo the NDJSON member envelope),
// and shares its cache entries — the refactor's core invariant.
func TestCohortOfOneMatchesWhatIf(t *testing.T) {
	_, ts := newV1Server(t)
	const whatifBody = `{"query":{"completed":["COSI 11A","COSI 12B"],"start":"Fall 2014","end":"Fall 2015","maxPerTerm":3},"goal":{"courses":["COSI 29A","COSI 127B"]}}`
	resp, want := post(t, ts, "/api/v1/explore/whatif", whatifBody)
	if resp.StatusCode != 200 {
		t.Fatalf("whatif: %d %s", resp.StatusCode, want)
	}

	const cohortBody = `{"members":[{"student":"S1","completed":["COSI 11A","COSI 12B"],"start":"Fall 2014"}],"query":{"end":"Fall 2015","maxPerTerm":3},"goal":{"courses":["COSI 29A","COSI 127B"]},"detail":true}`
	resp, body := post(t, ts, "/api/v1/cohort", cohortBody)
	if resp.StatusCode != 200 {
		t.Fatalf("cohort: %d %s", resp.StatusCode, body)
	}
	members, sum := cohortLines(t, body)
	if len(members) != 1 || sum.Members != 1 {
		t.Fatalf("members = %d, summary.members = %d, want 1/1", len(members), sum.Members)
	}
	if got, wantTrim := []byte(members[0].Replan), bytes.TrimSpace(want); !bytes.Equal(got, wantTrim) {
		t.Errorf("cohort replan diverged from whatif body:\n got %s\nwant %s", got, wantTrim)
	}
	// The whatif response above populated the cache; the cohort's replan
	// unit must have found it — same canonical request, same key space.
	if sum.Coalesced == 0 {
		t.Errorf("cohort-of-1 did not reuse the interactive whatif cache entry: %+v", sum)
	}
}

// A cohort job's counting units must not answer interactive requests:
// after a job replans a member, the interactive countOnly goal body for
// the same position equals a fresh server's (elapsedMs aside).
func TestCohortDoesNotAlterInteractiveCountBody(t *testing.T) {
	const countBody = `{"query":{"completed":["COSI 11A","COSI 12B"],"start":"Fall 2014","end":"Fall 2015","maxPerTerm":3,"countOnly":true},"goal":{"courses":["COSI 29A","COSI 127B"]}}`
	elapsed := regexp.MustCompile(`"elapsedMs":[0-9.e+-]+`)
	masked := func(b []byte) string { return elapsed.ReplaceAllString(string(b), `"elapsedMs":0`) }

	_, fresh := newV1Server(t)
	resp, want := post(t, fresh, "/api/v1/explore/goal", countBody)
	if resp.StatusCode != 200 {
		t.Fatalf("fresh countOnly goal: %d %s", resp.StatusCode, want)
	}

	_, ts := newV1Server(t)
	const cohortBody = `{"members":[{"student":"S1","completed":["COSI 11A","COSI 12B"],"start":"Fall 2014"}],"query":{"end":"Fall 2015","maxPerTerm":3},"goal":{"courses":["COSI 29A","COSI 127B"]}}`
	if resp, b := post(t, ts, "/api/v1/cohort", cohortBody); resp.StatusCode != 200 {
		t.Fatalf("cohort: %d %s", resp.StatusCode, b)
	}
	resp, got := post(t, ts, "/api/v1/explore/goal", countBody)
	if resp.StatusCode != 200 {
		t.Fatalf("countOnly goal after cohort: %d %s", resp.StatusCode, got)
	}
	if masked(got) != masked(want) {
		t.Errorf("countOnly goal body after a cohort job (X-Cache %s):\n got %s\nwant %s",
			resp.Header.Get("X-Cache"), got, want)
	}
}

// A synthesized cohort streams one member record per student plus the
// trailing summary, with a scenario delta visibly affecting members.
func TestCohortStreamsRecordsAndSummary(t *testing.T) {
	_, ts := newV1Server(t)
	const body = `{
		"synthesize":{"n":10,"seed":3},
		"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]},
		"baseline":true
	}`
	resp, respBody := post(t, ts, "/api/v1/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("cohort: %d %s", resp.StatusCode, respBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	members, sum := cohortLines(t, respBody)
	if len(members) != 10 || sum.Members != 10 {
		t.Fatalf("members = %d, summary.members = %d, want 10/10", len(members), sum.Members)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary.errors = %d: %s", sum.Errors, respBody)
	}
	for i, m := range members {
		if m.Student == "" {
			t.Errorf("member %d has no student ID", i)
		}
		if m.Baseline == nil {
			t.Errorf("member %d missing baseline (baseline:true)", i)
		}
	}
	if sum.Units == 0 {
		t.Error("summary.units = 0, want the issued sub-exploration count")
	}
	// Identical requests replay entirely from cache.
	resp, second := post(t, ts, "/api/v1/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("second cohort: %d", resp.StatusCode)
	}
	_, sum2 := cohortLines(t, second)
	if sum2.Coalesced != sum2.Units {
		t.Errorf("second identical run coalesced %d of %d units, want all", sum2.Coalesced, sum2.Units)
	}
}

// A client that vanishes mid-stream aborts the job: the delivered
// prefix stays valid NDJSON, no summary is sent, and usage counts the
// cancelled cohort with its partial member tally.
func TestCohortMidStreamDisconnect(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	fw := &failingWriter{header: make(http.Header), failAt: 3}
	const body = `{
		"synthesize":{"n":20,"seed":5},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]}
	}`
	req := httptest.NewRequest("POST", "/api/v1/cohort", strings.NewReader(body))
	s.ServeHTTP(fw, req)

	st := s.Usage.Snapshot()
	if st.CohortJobs != 1 {
		t.Fatalf("cohortJobs = %d, want 1", st.CohortJobs)
	}
	if st.CohortCancelled != 1 {
		t.Errorf("cohortCancelled = %d, want 1", st.CohortCancelled)
	}
	if st.CohortMembers <= 0 || st.CohortMembers >= 20 {
		t.Errorf("cohortMembers = %d, want a partial tally in (0, 20)", st.CohortMembers)
	}
	if st.WriteAborts != 1 {
		t.Errorf("writeAborts = %d, want 1", st.WriteAborts)
	}
}

// Under a saturated admission pool a cohort whose units are all cached
// still completes: cache hits take no exploration slot, and the stats
// surface shows the coalescing (the overload-mix acceptance check).
func TestCohortCoalescesUnderSaturation(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	const body = `{
		"members":[
			{"student":"S1","completed":["COSI 11A"],"start":"Spring 2014"},
			{"student":"S2","completed":["COSI 11A"],"start":"Spring 2014"},
			{"student":"S3","completed":["COSI 11A"],"start":"Spring 2014"}
		],
		"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},
		"query":{"end":"Fall 2015","maxPerTerm":2},
		"goal":{"courses":["COSI 21A"]}
	}`
	resp, first := post(t, ts, "/api/v1/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("warm-up cohort: %d %s", resp.StatusCode, first)
	}
	_, sum1 := cohortLines(t, first)
	if sum1.Coalesced == 0 {
		t.Fatalf("duplicate members did not coalesce on the warm-up run: %+v", sum1)
	}

	// Hold the only exploration slot: a fresh unit would now queue or
	// shed, but the rerun's units are all cache hits.
	release, ok := s.acquire()
	if !ok {
		t.Fatal("could not take the only slot")
	}
	defer release()
	resp, second := post(t, ts, "/api/v1/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("saturated cohort: %d %s", resp.StatusCode, second)
	}
	members, sum2 := cohortLines(t, second)
	if len(members) != 3 || sum2.Errors != 0 {
		t.Fatalf("saturated run: %d members, %d errors (%s)", len(members), sum2.Errors, second)
	}
	if sum2.Coalesced != sum2.Units {
		t.Errorf("saturated rerun coalesced %d of %d units, want all (no slot was available)", sum2.Coalesced, sum2.Units)
	}
	var st struct {
		CohortJobs      int   `json:"cohortJobs"`
		CohortMembers   int64 `json:"cohortMembers"`
		CohortCoalesced int64 `json:"cohortCoalesced"`
	}
	_, stats := get(t, ts, "/api/v1/stats")
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.CohortJobs != 2 || st.CohortMembers != 6 {
		t.Errorf("stats cohortJobs=%d cohortMembers=%d, want 2/6", st.CohortJobs, st.CohortMembers)
	}
	if st.CohortCoalesced == 0 {
		t.Error("stats cohortCoalesced = 0, want > 0")
	}
}

// The tenant-scoped route serves the same handler against the resolved
// tenant; unknown tenants answer 404 unknown_tenant.
func TestCohortTenantScoped(t *testing.T) {
	_, ts := newV1Server(t)
	const body = `{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015","maxPerTerm":2},"goal":{"courses":["COSI 11A"]}}`
	resp, respBody := post(t, ts, "/api/v1/t/default/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("tenant-scoped cohort: %d %s", resp.StatusCode, respBody)
	}
	if _, sum := cohortLines(t, respBody); sum.Members != 1 {
		t.Fatalf("summary.members = %d, want 1", sum.Members)
	}
	resp, respBody = post(t, ts, "/api/v1/t/nope/cohort", body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d %s", resp.StatusCode, respBody)
	}
	var env envelope
	if err := json.Unmarshal(respBody, &env); err != nil || env.Error.Code != CodeUnknownTenant {
		t.Errorf("unknown tenant envelope = %s, want code %q", respBody, CodeUnknownTenant)
	}
}

func TestCohortBadRequests(t *testing.T) {
	_, ts := newV1Server(t)
	cases := []struct {
		name string
		body string
		code string
	}{
		{"missing goal",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015"}}`,
			CodeBadRequest},
		{"missing end",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"countOnly set",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015","countOnly":true},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"template completed set",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015","completed":["COSI 11A"]},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"no member source",
			`{"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"two member sources",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"synthesize":{"n":2},"query":{"start":"Fall 2013","end":"Fall 2015"},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"member missing start",
			`{"members":[{"student":"S1"}],"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"horizon out of range",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]},"horizon":99}`,
			CodeBadRequest},
		{"workers out of range",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]},"workers":99}`,
			CodeBadRequest},
		{"samples out of range",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"scenario":{"samples":9999},"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]}}`,
			CodeBadRequest},
		{"scenario unknown course",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"scenario":{"cancel":[{"course":"NOPE 1"}]},"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]}}`,
			CodeUnknownCourse},
		{"unknown field",
			`{"members":[{"student":"S1","start":"Fall 2014"}],"query":{"end":"Fall 2015"},"goal":{"courses":["COSI 11A"]},"bogus":1}`,
			CodeBadRequest},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/api/v1/cohort", tc.body)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status = %d, want 4xx (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != tc.code {
			t.Errorf("%s: envelope = %s (err %v), want code %q", tc.name, body, err, tc.code)
		}
	}
}

// Monte-Carlo sampling attaches a reliability to every member and a
// mean to the summary, deterministically per scenario seed.
func TestCohortSampledReliability(t *testing.T) {
	_, ts := newV1Server(t)
	const body = `{
		"members":[{"student":"S1","completed":["COSI 11A"],"start":"Spring 2014"}],
		"scenario":{"samples":4,"seed":11},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":2},
		"goal":{"courses":["COSI 21A"]}
	}`
	run := func() ([]cohort.MemberRecord, cohort.Summary) {
		resp, respBody := post(t, ts, "/api/v1/cohort", body)
		if resp.StatusCode != 200 {
			t.Fatalf("cohort: %d %s", resp.StatusCode, respBody)
		}
		return cohortLines(t, respBody)
	}
	m1, s1 := run()
	m2, _ := run()
	if m1[0].Reliability == nil || s1.MeanReliability == nil {
		t.Fatalf("sampled run missing reliability: %+v / %+v", m1[0], s1)
	}
	if *m1[0].Reliability != *m2[0].Reliability {
		t.Errorf("equal scenario seeds produced different reliabilities: %v vs %v",
			*m1[0].Reliability, *m2[0].Reliability)
	}
}

// The parallel-pipeline guard at the HTTP surface: the same cohort job
// at workers:8 answers byte-identically to workers:1 — records in
// member order, identical tallies, identical summary (the reorder
// window plus order-independent coalescing accounting make the stream
// deterministic). Fresh servers per run so cache state is equal.
func TestCohortWorkersByteIdentical(t *testing.T) {
	const tpl = `{
		"synthesize":{"n":30,"seed":9},
		"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014","Fall 2014"]}]},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]},
		"baseline":true,"detail":true,"horizon":2,"workers":%d
	}`
	run := func(workers int) []byte {
		_, ts := newV1Server(t)
		resp, body := post(t, ts, "/api/v1/cohort", fmt.Sprintf(tpl, workers))
		if resp.StatusCode != 200 {
			t.Fatalf("cohort workers=%d: %d %s", workers, resp.StatusCode, body)
		}
		return body
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("workers=8 stream diverged from workers=1:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if members, sum := cohortLines(t, serial); len(members) != 30 || sum.Errors != 0 {
		t.Fatalf("run shape: %d members, %d errors", len(members), sum.Errors)
	}
}

// The shared-substrate counters surface in /api/v1/stats after a cohort
// job: cross-member DP reuse is observable, not just fast.
func TestCohortSharedSubstrateStats(t *testing.T) {
	_, ts := newV1Server(t)
	const body = `{
		"synthesize":{"n":12,"seed":4},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]}
	}`
	resp, respBody := post(t, ts, "/api/v1/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("cohort: %d %s", resp.StatusCode, respBody)
	}
	var st struct {
		CohortSharedHits int64 `json:"cohortSharedHits"`
		CohortDPReused   int64 `json:"cohortDPReused"`
	}
	_, stats := get(t, ts, "/api/v1/stats")
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.CohortSharedHits+st.CohortDPReused == 0 {
		t.Errorf("stats report no shared-substrate reuse after a 12-member job: %s", stats)
	}
}

// The acceptance-scale run: a 10k-member synthesized cohort streams one
// record per member plus the trailing summary, and canonical-position
// sharing across members makes the job overwhelmingly cache-coalesced —
// the property that keeps institution-scale jobs cheap.
func TestCohort10kMembersStreamAndCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-member cohort is a -short skip")
	}
	_, ts := newV1Server(t)
	body := `{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},` +
		`"synthesize":{"n":10000,"seed":1},` +
		`"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},` +
		`"goal":{"expr":"COSI 21A and COSI 29A"}}`
	resp, b := post(t, ts, "/api/v1/cohort", body)
	if resp.StatusCode != 200 {
		t.Fatalf("cohort: %d %s", resp.StatusCode, b)
	}
	members, sum := cohortLines(t, []byte(b))
	if len(members) != 10000 || sum.Members != 10000 {
		t.Fatalf("got %d member records, summary.members=%d, want 10000", len(members), sum.Members)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary.errors = %d, want 0", sum.Errors)
	}
	// Synthesized members land on far fewer canonical positions than
	// members, so the bulk of the units must coalesce.
	if sum.Coalesced*2 < sum.Units {
		t.Fatalf("coalesced %d of %d units, want a majority", sum.Coalesced, sum.Units)
	}
}
