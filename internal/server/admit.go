// Cost-aware admission and brownout glue: the server side of
// internal/admission.
//
// Every exploration passes two admission levels. The tenant quota stays
// an instant-shed semaphore (429 tenant_overloaded) — tenancy isolation
// wants hard, simple edges. The global level is the admission
// controller's deadline-aware bounded queue: each request is priced
// before it runs (per-key observed history when the canonical request
// was computed before, the depth/breadth seed otherwise), cheap requests
// queue briefly for a slot when the pool is saturated, expensive
// uncached ones are shed at once, and every shed carries an honest
// Retry-After computed from live queue state.
//
// The controller's health state drives the brownout ladder (cache.go
// serves stale entries, query and unitCtx clamp budgets when degraded);
// /api/v1/healthz and /api/v1/stats surface it.
package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/term"
)

// Error codes added by the overload-resilience surface.
const (
	// CodeDegraded: the service is in brownout and shed this request as
	// too expensive to admit right now (503).
	CodeDegraded = "degraded"
	// CodeQueueTimeout: the request queued for a slot but none freed
	// within the queue timeout (503).
	CodeQueueTimeout = "queue_timeout"
)

// DefaultAdmissionQueue is the admission queue depth New configures.
const DefaultAdmissionQueue = 64

// Degraded-mode budget clamps: when the brownout state is degraded,
// every admitted exploration runs under these soft caps so it returns a
// well-formed partial result quickly instead of occupying a slot for the
// full interactive budget.
const (
	DefaultDegradedTimeout  = 2 * time.Second
	DefaultDegradedMaxNodes = 50_000
)

// adm returns the process-wide admission controller, building it from
// the Server's knobs on first use (like the semaphore it replaced,
// configure before the first request).
func (s *Server) adm() *admission.Controller {
	s.admOnce.Do(func() {
		n := s.MaxConcurrent
		if n <= 0 {
			n = DefaultMaxConcurrent
		}
		s.admission = admission.New(admission.Config{
			Slots:        n,
			QueueDepth:   s.AdmissionQueue,
			QueueTimeout: s.QueueTimeout,
			CostlyMs:     s.CostlyMs,
			DegradeHold:  s.BrownoutHold,
		})
	})
	return s.admission
}

// degradedNow reports whether brownout degradation is in effect: the
// controller derives the state, Brownout gates the reactions.
func (s *Server) degradedNow() bool {
	return s.Brownout && s.adm().State() == admission.StateDegraded
}

// costHint extracts the depth/breadth features the seed estimator uses:
// the semester horizon (Zuev & Stavrinides' depth) and maxPerTerm (the
// per-term branching). An unparseable window leaves Terms 0 and the
// estimator assumes a middling horizon.
func costHint(req *ExploreRequest) admission.Hint {
	h := admission.Hint{
		Branch:    float64(req.Query.MaxPerTerm),
		CountOnly: req.Query.CountOnly,
	}
	start, err1 := term.Parse(term.TwoSeason, req.Query.Start)
	end, err2 := term.Parse(term.TwoSeason, req.Query.End)
	if err1 == nil && err2 == nil {
		if n := end.Sub(start) + 1; n > 0 {
			h.Terms = n
		}
	}
	return h
}

// admitResult carries one admission decision to the caller, which
// decides how to answer a shed (plain error, or stale fallback first).
type admitResult struct {
	release    func()
	outcome    admission.Outcome
	tenantShed bool
	// degraded is the brownout state observed BEFORE this request's own
	// admission attempt: a shed latches the degraded state, so reading it
	// afterwards would classify the first shed of a calm system as a
	// brownout response.
	degraded   bool
	retryAfter int
}

// admit prices the request and takes both admission levels: the
// tenant's instant-shed quota, then the global cost-aware queue — or,
// with queue false (brownout revalidation), a global slot only when one
// is free, with no shed counted. On admission the release func returns
// both slots and records the run's wall time under the request's cost
// key. Nothing is written on a shed — the caller answers (writeShed, a
// stale fallback, or a per-member error record in a cohort run).
func (s *Server) admit(ctx context.Context, t *tenantState, k unitKey, req *ExploreRequest, queue bool) (admitResult, bool) {
	relQuota, ok := t.acquireQuota()
	if !ok {
		return admitResult{tenantShed: true}, false
	}
	key, keyed := k.costKey(t.id)
	hint := costHint(req)
	est, _ := s.Estimator.Estimate(key, hint)
	if !keyed {
		est = admission.SeedCost(hint)
	}
	wasDegraded := s.degradedNow()
	var release func()
	outcome := admission.ShedQueueFull
	if queue {
		release, outcome = s.adm().Acquire(ctx, est)
	} else if rel, ok := s.adm().TryAcquire(); ok {
		release, outcome = rel, admission.Admitted
	}
	if outcome.Shed() {
		relQuota()
		return admitResult{outcome: outcome, degraded: wasDegraded, retryAfter: s.adm().RetryAfter()}, false
	}
	began := time.Now()
	return admitResult{
		outcome: outcome,
		release: func() {
			if keyed {
				s.Estimator.Observe(key, time.Since(began))
			}
			release()
			relQuota()
		},
	}, true
}

// annotateAdmission records a non-trivial admission disposition on the
// usage event (instant admits stay unannotated).
func annotateAdmission(w http.ResponseWriter, outcome admission.Outcome) {
	if outcome != admission.Admitted {
		recorder(w).admission = outcome.String()
	}
}

// writeShed answers a shed admission decision with the right envelope:
// tenant quota sheds keep their 429 tenant_overloaded; global sheds map
// to 429 overloaded (queue full, or costly under plain pressure),
// 503 degraded (costly shed while browned out — the client should back
// off, not just retry) and 503 queue_timeout (queued but no slot freed
// in time). Every global shed carries the controller's honest
// Retry-After.
func (s *Server) writeShed(t *tenantState, w http.ResponseWriter, res admitResult) {
	if res.tenantShed {
		shedTenant(w, t.id)
		return
	}
	annotateAdmission(w, res.outcome)
	retry := res.retryAfter
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	switch res.outcome {
	case admission.ShedTimeout:
		writeErrDetail(w, http.StatusServiceUnavailable, CodeQueueTimeout,
			"the admission queue is saturated; retry after the indicated delay",
			"request queued for an exploration slot but none freed in time")
	case admission.ShedCostly:
		if res.degraded {
			writeErrDetail(w, http.StatusServiceUnavailable, CodeDegraded,
				"the service is shedding expensive uncached requests while overloaded; narrow the window, set countOnly, or retry after the indicated delay",
				"service degraded: request estimated too expensive to admit under load")
			return
		}
		writeErrDetail(w, http.StatusTooManyRequests, CodeOverloaded,
			"narrow the window, set countOnly, or retry after the indicated delay",
			"server is saturated and this request's estimated cost exceeds the admission threshold")
	default:
		writeErr(w, http.StatusTooManyRequests, CodeOverloaded,
			"server is at its exploration concurrency limit; retry shortly")
	}
}

// admitExplore is the writing form of admit, for call sites with no
// stale fallback (the streaming branches): it answers the shed itself
// and returns ok=false.
func (s *Server) admitExplore(t *tenantState, w http.ResponseWriter, r *http.Request, k unitKey, req *ExploreRequest) (release func(), ok bool) {
	res, ok := s.admit(r.Context(), t, k, req, true)
	if !ok {
		s.writeShed(t, w, res)
		return nil, false
	}
	annotateAdmission(w, res.outcome)
	return res.release, true
}
