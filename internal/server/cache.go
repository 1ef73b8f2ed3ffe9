// Result caching and the HTTP shell of the serving pipeline.
//
// The interactive workload the paper targets (§5: a student tweaks one knob
// and re-explores) is dominated by repeated, semantically identical
// requests against a catalog that changes only at reload time. Every
// non-streaming explore response is therefore cached under
// (catalog snapshot generation, canonicalized request, endpoint) and
// replayed byte-for-byte on a hit; concurrent identical misses coalesce
// into one exploration via the cache's flight mechanism. Misses run
// through runUnit (unit.go), the one pipeline cohort units use too;
// serveUnit here is only its HTTP shell: hit replay, brownout stale
// serving, and the shed and error envelopes. Streaming requests bypass
// the cache on the read side but populate it when the run completes
// cleanly and the rendered result fits the per-entry cap — see the
// stream branches of the explore handlers, which render through the
// same entry builders (exploreRun, jsonRun).
//
// Cache hits skip admission entirely (a replay is a memcpy, not an
// exploration); misses and coalescing fallbacks are admitted, so load
// shedding still protects the engines. The X-Cache response header
// reports hit/coalesced/miss/stale on every cached-path response for
// observability; responses are otherwise byte-identical to an uncached
// server's (tests assert this per endpoint).
//
// Invalidation is generational: ReloadNow bumps the generation and calls
// Invalidate, making every pre-reload entry unreachable (the generation is
// part of the key) and dropping the coalescing map so in-flight
// old-snapshot work cannot poison the new generation. Handlers read the
// generation BEFORE the navigator snapshot: the reload path stores the
// navigator first and bumps the generation after, so a request that
// observes generation g is guaranteed a navigator at least as new as g —
// results are never cached under a newer generation than the catalog that
// produced them.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"sort"
	"strings"

	"repro"
	"repro/internal/explore"
	"repro/internal/resultcache"
)

// DefaultCacheBytes is the result cache's byte budget (charged by rendered
// response size).
const DefaultCacheBytes = 64 << 20

// maxCacheEntryBytes caps one cached response body. Responses are bounded
// by MaxResponseNodes anyway; the cap keeps a handful of worst-case graph
// renders from monopolising the budget.
const maxCacheEntryBytes = 1 << 20

// canonicalize rewrites req into its canonical form: trimmed terms, course
// IDs resolved to the catalog's spelling (case-insensitively when
// unambiguous), and set-semantic course lists sorted and deduplicated.
// The SAME canonical request both derives the cache key and drives
// execution, so two requests that canonicalize equally are guaranteed to
// run identically — a key can never alias two requests with different
// behaviour. Degree-requirement group lists are resolved but neither
// sorted nor deduplicated: their courses fill counted slots, so list
// shape may be meaningful.
func canonicalize(nav *coursenav.Navigator, req *ExploreRequest) {
	req.Query.Start = strings.TrimSpace(req.Query.Start)
	req.Query.End = strings.TrimSpace(req.Query.End)
	req.Ranking = strings.TrimSpace(req.Ranking)
	canonCourseSet(nav, &req.Query.Completed)
	canonCourseSet(nav, &req.Query.Avoid)
	if req.Goal != nil {
		req.Goal.Expr = strings.TrimSpace(req.Goal.Expr)
		canonCourseSet(nav, &req.Goal.Courses)
		for i := range req.Goal.Degree {
			canonCourseList(nav, req.Goal.Degree[i].Courses)
		}
	}
	for i := range req.Weights {
		req.Weights[i].Ranking = strings.TrimSpace(req.Weights[i].Ranking)
	}
}

// canonCourseList trims and resolves course IDs in place. Unknown IDs are
// left as typed — they fail downstream with the usual unknown-course error,
// and error responses are never cached.
func canonCourseList(nav *coursenav.Navigator, ids []string) {
	for i, id := range ids {
		id = strings.TrimSpace(id)
		if c, ok := nav.CanonicalCourse(id); ok {
			id = c
		}
		ids[i] = id
	}
}

// canonCourseSet canonicalizes a course list with set semantics: resolved,
// sorted, deduplicated.
func canonCourseSet(nav *coursenav.Navigator, ids *[]string) {
	if len(*ids) == 0 {
		return
	}
	canonCourseList(nav, *ids)
	sort.Strings(*ids)
	out := (*ids)[:1]
	for _, id := range (*ids)[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	*ids = out
}

// unitKey is one canonical request's identity in the pipeline, derived
// from a single marshal. key addresses the tenant's cache partition
// under the snapshot generation; keys never collide across tenants
// because each tenant owns a separate Cache instance — the partition,
// not the key, carries the tenant. The admission estimator's cost key
// (costKey) comes from the same blob.
type unitKey struct {
	cache    *resultcache.Cache // the tenant's partition; nil = not cached
	key      resultcache.Key
	endpoint string
	blob     []byte // the canonical request; nil when it did not marshal
}

// unitKey derives a canonicalized request's identity against this
// tenant's partition at snapshot generation gen. A request that does
// not marshal is never cached and is priced by the seed alone.
func (t *tenantState) unitKey(gen uint64, endpoint string, req *ExploreRequest) unitKey {
	blob, err := json.Marshal(req)
	if err != nil {
		return unitKey{endpoint: endpoint}
	}
	k := unitKey{cache: t.resultCache(), endpoint: endpoint, blob: blob}
	if k.cache != nil {
		k.key = resultcache.KeyFor(gen, endpoint, blob)
	}
	return k
}

// costKey is the generation-independent digest observed run times are
// recorded under: the cache key's blob with the tenant folded in
// (partitions keep cache keys tenant-local; the estimator is one map,
// so the key must carry the tenant itself). It is derived only when a
// unit reaches admission, so cache hits never pay for it.
func (k unitKey) costKey(tenantID string) ([sha256.Size]byte, bool) {
	if k.blob == nil {
		return [sha256.Size]byte{}, false
	}
	return resultcache.KeyFor(0, tenantID+"|"+k.endpoint, k.blob).Hash, true
}

// put caches a completed stream's rendered result under the pipeline's
// publish rule — the streaming branches' only cache write.
func (k unitKey) put(run unitRun, err error) {
	if k.cache != nil && err == nil && run.publishable() {
		k.cache.Put(k.key, run.ent)
	}
}

// replay writes a unit's entry: the body byte-for-byte, plus the usage
// annotations of the run that produced it. how is the X-Cache
// disposition, "" when the tenant's caching is off (no header then).
func replay(w http.ResponseWriter, ent *resultcache.Entry, how string) {
	rec := recorder(w)
	rec.cache = how
	rec.window, rec.paths = ent.Window, ent.Paths
	if how != "" {
		w.Header().Set("X-Cache", how)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ent.Body)
}

// serveUnit is the HTTP shell over runUnit for the non-streaming
// explore endpoints: replay a hit, serve stale under brownout, run the
// unit, then answer with its body, a shed or an error envelope.
//
// Brownout behaviour (stale-while-revalidate): while the service is
// degraded, a miss whose request was cached in the PREVIOUS snapshot
// generation is answered from that stale entry immediately — marked
// X-Cache: stale with "degraded":true in the envelope — and the fresh
// computation happens in the background when both admission levels have
// a slot free, populating the live cache for the next request. A
// request shed by admission gets the same stale fallback before the
// error goes out: a slightly old answer beats a 429 for the paper's
// interactive workload, and staleness is bounded at one generation by
// the cache's construction.
func (s *Server) serveUnit(t *tenantState, w http.ResponseWriter, r *http.Request, req *ExploreRequest, endpoint string, gen uint64, exec unitExec) {
	k := t.unitKey(gen, endpoint, req)
	if k.cache != nil {
		if ent, ok := k.cache.Get(k.key); ok {
			replay(w, ent, "hit")
			return
		}
		if s.degradedNow() {
			if ent, ok := k.cache.Stale(k.key); ok {
				replayStale(w, ent)
				go s.revalidate(t, k, req, exec)
				return
			}
		}
	}
	res, err := s.runUnit(r.Context(), t, k, req, false, exec)
	// runUnit returns a shed bare; a type assertion, unlike errors.As,
	// costs the miss path no allocation.
	if se, ok := err.(*unitShedError); ok {
		if k.cache != nil && s.Brownout {
			if ent, ok := k.cache.Stale(k.key); ok {
				annotateAdmission(w, se.res.outcome)
				replayStale(w, ent)
				return
			}
		}
		s.writeShed(t, w, se.res)
		return
	}
	rec := recorder(w)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			// The client left while awaiting a coalesced flight: record
			// the cancelled run it would have been; nobody reads a body.
			rec.stopped = explore.StopCanceled
			return
		}
		if k.cache != nil {
			rec.cache = "miss"
			w.Header().Set("X-Cache", "miss")
		}
		s.writeNavErr(w, err)
		return
	}
	annotateAdmission(w, res.admission)
	if res.how == "miss" {
		rec.stopped = res.stopped
		rec.dag, rec.dagNodes = res.dag, res.dagNodes
	}
	if k.cache == nil {
		res.how = ""
	}
	replay(w, res.ent, res.how)
}

// degradedSuffix is spliced into a replayed body's top-level object when
// it is served stale, so clients can tell a brownout answer from a live
// one without parsing headers. Every cached body is a complete JSON
// object ending "}\n", so the splice point is the final close brace.
var degradedSuffix = []byte(`,"degraded":true`)

// injectDegraded returns body with "degraded":true added to its
// top-level object. The body is returned unchanged if no close brace is
// found (cannot happen for entries the server itself rendered).
func injectDegraded(body []byte) []byte {
	i := bytes.LastIndexByte(body, '}')
	if i < 0 {
		return body
	}
	out := make([]byte, 0, len(body)+len(degradedSuffix))
	out = append(out, body[:i]...)
	out = append(out, degradedSuffix...)
	out = append(out, body[i:]...)
	return out
}

// replayStale writes a previous-generation cache entry as a brownout
// response: X-Cache: stale, "degraded":true in the body, recorded in
// usage as a degraded stale serve.
func replayStale(w http.ResponseWriter, ent *resultcache.Entry) {
	rec := recorder(w)
	rec.cache, rec.degraded = "stale", true
	rec.window, rec.paths = ent.Window, ent.Paths
	w.Header().Set("X-Cache", "stale")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(injectDegraded(ent.Body))
}

// revalidate computes a fresh answer for a stale-served request in the
// background — the stale-while-revalidate half of brownout mode. It is
// strictly best-effort: as a revalidating unit it runs only when no
// identical computation is already in flight and both admission levels
// (the tenant quota included) have a slot free without queueing —
// degraded means slots are scarce. Its run time feeds the estimator
// like any computed unit; any failure is silent (the next request just
// misses again). The request context dies when the handler returns, so
// the run gets a fresh one bounded by unitCtx's usual caps.
func (s *Server) revalidate(t *tenantState, k unitKey, req *ExploreRequest, exec unitExec) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("server: tenant %s: panic in background revalidation: %v", t.id, p)
		}
	}()
	_, _ = s.runUnit(context.Background(), t, k, req, true, exec)
}

// window labels a query's exploration window for usage and cache
// entries.
func window(qs QuerySpec) string { return qs.Start + " → " + qs.End }

// exploreRun renders the deadline/goal envelope for a finished run —
// graph included when the run materialised one — as a unit result. It
// is the one entry builder for that envelope: the deadline and goal
// execs and their stream branches' cache population render through it.
func (s *Server) exploreRun(qs QuerySpec, sum coursenav.Summary, g *coursenav.Graph, paths int64) (unitRun, error) {
	var buf bytes.Buffer
	if err := s.renderExploreBody(&buf, sum, g); err != nil {
		return unitRun{}, err
	}
	run := unitRun{
		ent:     &resultcache.Entry{Body: buf.Bytes(), Paths: paths, Window: window(qs)},
		stopped: sum.Stopped,
	}
	if sum.DAG {
		run.dag, run.dagNodes = true, sum.Nodes
	}
	return run, nil
}

// jsonRun renders v as a unit result: exactly the bytes writeJSON puts
// on the wire (json.Marshal plus the encoder's trailing newline).
func jsonRun(qs QuerySpec, v interface{}, paths int64, stopped string) (unitRun, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return unitRun{}, err
	}
	return unitRun{
		ent:     &resultcache.Entry{Body: append(blob, '\n'), Paths: paths, Window: window(qs)},
		stopped: stopped,
	}, nil
}
