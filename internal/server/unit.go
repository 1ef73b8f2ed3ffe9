// The serving pipeline: one canonical exploration executed through the
// result cache, singleflight coalescing and two-level cost-aware
// admission, without an http.ResponseWriter in sight.
//
// Every non-streaming exploration runs here. The explore handlers hand
// runUnit an exec closure and keep only a thin HTTP shell (serveUnit in
// cache.go: hit replay, brownout stale serving, the shed and error
// envelopes). The cohort endpoint runs each member's sub-explorations
// as units too, so every member is individually costed by the admission
// estimator, individually budgeted (unitCtx) and keyed into the same
// result cache: members sharing a canonical sub-request coalesce with
// each other, and where a key space is shared with an interactive
// endpoint ("whatif"), with live interactive requests.
package server

import (
	"context"
	"errors"

	"repro/internal/admission"
	"repro/internal/resultcache"
)

// unitRun is what an exec produces: the rendered entry plus the run
// annotations the pipeline publishes by and the usage log records.
type unitRun struct {
	ent      *resultcache.Entry
	stopped  string // why the run ended early; "" for a complete run
	dag      bool   // the DAG substrate answered the run (countOnly)
	dagNodes int64  // distinct statuses that DAG run interned
}

// publishable is the one publish rule: a run is cached only when it
// completed and its body fits the per-entry cap.
func (u unitRun) publishable() bool {
	return u.stopped == "" && len(u.ent.Body) <= maxCacheEntryBytes
}

// unitExec computes one unit under the context runUnit derived for it
// (unitCtx: RequestTimeout, budget and brownout caps). A nil error
// carries a non-nil entry.
type unitExec func(ctx context.Context) (unitRun, error)

// unitResult is runUnit's answer. A "hit" or "coalesced" result carries
// only the entry: the run annotations belong to the run that produced
// it.
type unitResult struct {
	unitRun
	how       string            // "hit", "coalesced" or "miss"
	admission admission.Outcome // the admission disposition of a computed unit
}

// errInFlight ends a revalidation that found an identical computation
// already running.
var errInFlight = errors.New("server: identical unit already in flight")

// unitShedError reports a unit refused by admission. The HTTP shell
// answers it (stale fallback, then writeShed); cohort records it on the
// member and continues.
type unitShedError struct {
	res admitResult
}

func (e *unitShedError) Error() string {
	if e.res.tenantShed {
		return "unit shed: tenant concurrency quota exhausted"
	}
	return "unit shed: " + e.res.outcome.String()
}

// runUnit executes one canonicalized exploration unit whose caller has
// already missed the cache:
//
//  1. flight Join — an identical in-flight unit is awaited ("coalesced")
//  2. admission — the tenant quota, then the global cost-aware queue
//     (shed → *unitShedError)
//  3. exec under unitCtx; a publishable run is handed to the flight's
//     followers and cached ("miss")
//
// revalidate marks brownout's background refresh: it only leads
// (errInFlight when an identical unit is already running) and takes
// both admission levels without queueing.
//
// A leader that fails, sheds or panics finishes its flight empty, so
// followers compute individually rather than hang. A follower whose
// context ends while it waits returns the context's error.
func (s *Server) runUnit(ctx context.Context, t *tenantState, k unitKey, req *ExploreRequest, revalidate bool, exec unitExec) (unitResult, error) {
	cache := k.cache
	var flight *resultcache.Flight
	leader := false
	if cache != nil {
		flight, leader = cache.Join(k.key)
		if !leader {
			if revalidate {
				return unitResult{}, errInFlight
			}
			if ent := flight.Wait(ctx); ent != nil {
				return unitResult{unitRun: unitRun{ent: ent}, how: "coalesced"}, nil
			}
			if err := ctx.Err(); err != nil {
				return unitResult{}, err
			}
			// The leader produced nothing cacheable (error, budget-stopped
			// run, oversized render): compute individually.
		}
	}
	finished := false
	if leader {
		defer func() {
			if !finished {
				cache.Finish(k.key, flight, nil)
			}
		}()
	}
	adm, ok := s.admit(ctx, t, k, req, !revalidate)
	if !ok {
		return unitResult{}, &unitShedError{res: adm}
	}
	defer adm.release()
	uctx, cancel := s.unitCtx(ctx, req.Budget)
	defer cancel()
	run, err := exec(uctx)
	if err != nil {
		return unitResult{}, err
	}
	var publish *resultcache.Entry
	if run.publishable() {
		publish = run.ent
	}
	if leader {
		cache.Finish(k.key, flight, publish)
		finished = true
	} else if cache != nil && publish != nil {
		cache.Put(k.key, publish)
	}
	return unitResult{unitRun: run, how: "miss", admission: adm.outcome}, nil
}
