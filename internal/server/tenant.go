// The tenant registry: one server process hosting many institutions'
// catalogs in isolation.
//
// Each tenant owns the full per-catalog serving state — an atomic
// navigator snapshot, a generation counter, a result-cache partition, a
// reloadable catalog source and a concurrency quota. The registry that
// maps tenant IDs to that state is copy-on-write: the request path loads
// one atomic pointer and never takes a lock, while mutations (manifest
// loads, AddTenant) serialise on registryMu and publish a fresh map.
//
// The default tenant is an ordinary registry entry, except where the
// Server's exported fields predate tenancy and stay its configuration:
// its cache partition is Server.Cache, its reload source Server.Loader
// (until a manifest entry re-points it) and its quota
// TenantMaxConcurrent. Callers — the server command, tests, benchmark
// harnesses — set those after New, so the default entry reads them at
// use rather than copying them at construction; that is why exactly
// those accessors keep a def branch.
//
// Isolation properties the tests pin down: a reload of tenant A
// invalidates only A's cache partition (keys are per-partition, and
// partitions are separate Cache instances); tenant A exhausting its
// quota sheds A's requests with 429 tenant_overloaded while B proceeds;
// and the global cache byte budget is re-carved into equal partition
// shares whenever the registry grows.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/resultcache"
	"repro/internal/tenant"
	"repro/internal/usage"
)

// tenantState is one tenant's live serving state. For the default
// tenant (def == true) the cache, loader and quota are read through the
// Server's exported fields; see the package comment.
type tenantState struct {
	id  string
	srv *Server
	def bool

	nav        atomic.Pointer[coursenav.Navigator]
	generation atomic.Uint64 // successful catalog swaps since start
	cache      *resultcache.Cache
	loader     Loader
	reloadMu   sync.Mutex // serialises reload attempts

	// maxConcurrent caps this tenant's in-flight explorations; 0 means no
	// per-tenant quota (the global semaphore still applies). Fixed at
	// registration: updating a live tenant's quota requires a restart.
	maxConcurrent int
	quota         chan struct{} // built once on first acquire; nil = no quota
	quotaOnce     sync.Once

	// Circuit breaker over this tenant's reload source (reload.go).
	// breakerFails counts consecutive source failures (guarded by the
	// reload mutex); breakerOpenUntil is the unix-nano deadline an open
	// breaker refuses reload attempts until (atomic — the health surface
	// reads it without the mutex; 0 = closed).
	breakerFails     int
	breakerOpenUntil atomic.Int64
}

// breakerOpen reports whether the tenant's reload breaker currently
// refuses attempts.
func (t *tenantState) breakerOpen() bool {
	until := t.breakerOpenUntil.Load()
	return until > 0 && time.Now().UnixNano() < until
}

func (t *tenantState) navigator() *coursenav.Navigator { return t.nav.Load() }

func (t *tenantState) gen() uint64 { return t.generation.Load() }

// resultCache returns the tenant's cache partition (nil = caching off).
func (t *tenantState) resultCache() *resultcache.Cache {
	if t.def {
		return t.srv.Cache
	}
	return t.cache
}

// catalogLoader returns the tenant's reload source: the one a manifest
// installed, else, for the default tenant, Server.Loader.
func (t *tenantState) catalogLoader() Loader {
	if t.def && t.loader == nil {
		return t.srv.Loader
	}
	return t.loader
}

// acquireQuota reserves a slot in the tenant's concurrency quota. A
// tenant with no quota (cap 0) always admits — the global semaphore is
// the only bound then. The channel is built lazily so the default
// tenant picks up a TenantMaxConcurrent set after New().
func (t *tenantState) acquireQuota() (release func(), ok bool) {
	t.quotaOnce.Do(func() {
		n := t.maxConcurrent
		if t.def && n == 0 {
			n = t.srv.TenantMaxConcurrent
		}
		if n > 0 {
			t.quota = make(chan struct{}, n)
		}
	})
	q := t.quota
	if q == nil {
		return func() {}, true
	}
	select {
	case q <- struct{}{}:
		return func() { <-q }, true
	default:
		return nil, false
	}
}

// shedTenant answers 429: the tenant is at its concurrency quota.
func shedTenant(w http.ResponseWriter, id string) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusTooManyRequests, CodeTenantOverloaded,
		"tenant %q is at its exploration concurrency quota; retry shortly", id)
}

// tenantHandler is a request handler bound to a resolved tenant.
type tenantHandler func(t *tenantState, w http.ResponseWriter, r *http.Request)

// lookup resolves a canonical tenant ID against the live registry
// without locking.
func (s *Server) lookup(id string) (*tenantState, bool) {
	t, ok := (*s.registry.Load())[id]
	return t, ok
}

func (s *Server) defaultTenant() *tenantState {
	t, _ := s.lookup(tenant.Default)
	return t
}

// withDefault adapts a tenantHandler to the bare /api/v1/... routes,
// which resolve to the default tenant.
func (s *Server) withDefault(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.defaultTenant()
		recorder(w).tenant = t.id
		h(t, w, r)
	}
}

// withTenant adapts a tenantHandler to the /api/v1/t/{tenant}/...
// routes: the path segment is canonicalised (trimmed, case-folded) and
// resolved, unknown IDs answering 404 unknown_tenant.
func (s *Server) withTenant(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := tenant.Canonical(r.PathValue("tenant"))
		t, ok := s.lookup(id)
		if !ok {
			writeErrDetail(w, http.StatusNotFound, CodeUnknownTenant,
				"list the available tenants at GET /api/v1/admin/tenants",
				"unknown tenant %q", id)
			return
		}
		recorder(w).tenant = t.id
		h(t, w, r)
	}
}

// tenantsSorted returns the live tenants in ID order.
func (s *Server) tenantsSorted() []*tenantState {
	reg := *s.registry.Load()
	out := make([]*tenantState, 0, len(reg))
	for _, t := range reg {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// AddTenant installs a new tenant or updates an existing one (the
// default tenant included, so a manifest can re-point the bare routes).
// The candidate catalog is loaded and integrity-gated BEFORE anything
// becomes visible: on failure the registry, the old catalog and the old
// loader are all untouched. maxConcurrent of 0 inherits the server's
// TenantMaxConcurrent; a live tenant's quota is never changed.
func (s *Server) AddTenant(id string, loader Loader, maxConcurrent int) ReloadStatus {
	id = tenant.Canonical(id)
	if !tenant.ValidID(id) {
		return ReloadStatus{Tenant: id, Reason: fmt.Sprintf("invalid tenant id %q", id)}
	}
	s.registryMu.Lock()
	defer s.registryMu.Unlock()
	reg := *s.registry.Load()
	if t, ok := reg[id]; ok {
		st, _ := t.reload(loader)
		return st
	}
	t := &tenantState{id: id, srv: s, maxConcurrent: maxConcurrent}
	if t.maxConcurrent == 0 {
		t.maxConcurrent = s.TenantMaxConcurrent
	}
	t.cache = resultcache.New(0) // budget carved by the rebalance below
	st, _ := t.reload(loader)
	if !st.OK {
		return st
	}
	next := make(map[string]*tenantState, len(reg)+1)
	for k, v := range reg {
		next[k] = v
	}
	next[id] = t
	s.registry.Store(&next)
	s.rebalanceLocked()
	return st
}

// LoadTenants applies a manifest: each entry is installed or updated
// independently (one bad catalog does not block its siblings), and the
// per-entry statuses are returned in manifest order. Relative source
// paths resolve against baseDir.
func (s *Server) LoadTenants(m tenant.Manifest, baseDir string) []ReloadStatus {
	out := make([]ReloadStatus, 0, len(m.Tenants))
	for _, sp := range m.Tenants {
		out = append(out, s.AddTenant(sp.ID, Loader(sp.Loader(baseDir)), sp.MaxConcurrent))
	}
	return out
}

// ReloadAll reloads every tenant in ID order (the SIGHUP path), each
// through its own loader. Tenants without a reloadable source report a
// rejection reason but keep serving their current catalog.
func (s *Server) ReloadAll() []ReloadStatus {
	out := make([]ReloadStatus, 0)
	for _, t := range s.tenantsSorted() {
		st, _ := t.reload(nil)
		out = append(out, st)
	}
	return out
}

// cacheBudget is the global result-cache byte budget to carve shares
// from.
func (s *Server) cacheBudget() int64 {
	if s.CacheBytes > 0 {
		return s.CacheBytes
	}
	return DefaultCacheBytes
}

// rebalanceLocked re-carves the global cache budget into equal shares
// across the tenants with caching enabled, evicting from partitions
// that shrink. Caller holds registryMu.
func (s *Server) rebalanceLocked() {
	var caches []*resultcache.Cache
	for _, t := range *s.registry.Load() {
		if c := t.resultCache(); c != nil {
			caches = append(caches, c)
		}
	}
	if len(caches) == 0 {
		return
	}
	share := s.cacheBudget() / int64(len(caches))
	for _, c := range caches {
		c.SetBudget(share)
	}
}

// tenantOverview is one tenant's row in the admin listing and the
// global stats aggregate.
type tenantOverview struct {
	Tenant     string `json:"tenant"`
	Generation uint64 `json:"generation"`
	Courses    int    `json:"courses"`
	// Requests and Errors are this tenant's share of the usage event ring
	// (global stats only; zero-valued in the admin listing).
	Requests int `json:"requests,omitempty"`
	Errors   int `json:"errors,omitempty"`
}

// overviews returns one row per registered tenant in ID order, with
// lifetime request/error counts joined in from the usage log. Both the
// admin listing and the global stats breakdown serve these rows.
func (s *Server) overviews() []tenantOverview {
	counts := map[string]usage.TenantCount{}
	for _, tc := range s.Usage.TenantCounts() {
		counts[tc.Tenant] = tc
	}
	rows := make([]tenantOverview, 0)
	for _, t := range s.tenantsSorted() {
		rows = append(rows, tenantOverview{
			Tenant: t.id, Generation: t.gen(), Courses: t.navigator().NumCourses(),
			Requests: counts[t.id].Requests, Errors: counts[t.id].Errors,
		})
	}
	return rows
}

// handleTenantsList answers GET /api/v1/admin/tenants: the registry in
// ID order.
func (s *Server) handleTenantsList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"tenants": s.overviews()})
}

// tenantsLoadResult is the body of POST /api/v1/admin/tenants: one
// ReloadStatus per manifest entry, in manifest order.
type tenantsLoadResult struct {
	Results []ReloadStatus `json:"results"`
}

// handleTenantsLoad answers POST /api/v1/admin/tenants: the body is a
// tenant manifest (same format as the -tenants file; relative paths
// resolve against the server's working directory). Entries apply
// independently; the response is 200 only when every entry applied.
func (s *Server) handleTenantsLoad(w http.ResponseWriter, r *http.Request) {
	m, err := tenant.Parse(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	results := s.LoadTenants(m, "")
	status := http.StatusOK
	for _, st := range results {
		if !st.OK {
			status = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, status, tenantsLoadResult{Results: results})
}

// tenantStatsBody is the per-tenant stats response: the tenant's slice
// of the usage aggregate plus its catalog and cache-partition state.
type tenantStatsBody struct {
	Tenant     string `json:"tenant"`
	Generation uint64 `json:"generation"`
	Courses    int    `json:"courses"`
	usage.Stats
}

// handleTenantStats answers GET /api/v1/t/{tenant}/stats with one
// tenant's usage aggregate and cache-partition counters.
func (s *Server) handleTenantStats(t *tenantState, w http.ResponseWriter, _ *http.Request) {
	snap := s.Usage.SnapshotTenant(t.id)
	if c := t.resultCache(); c != nil {
		cs := c.Stats()
		snap.Cache = &usage.CacheStats{
			Hits:         cs.Hits,
			Misses:       cs.Misses,
			Coalesced:    cs.Coalesced,
			Evictions:    cs.Evictions,
			Bytes:        cs.Bytes,
			Entries:      cs.Entries,
			StaleEntries: cs.StaleEntries,
			StaleHits:    cs.StaleHits,
		}
	}
	writeJSON(w, http.StatusOK, tenantStatsBody{
		Tenant:     t.id,
		Generation: t.gen(),
		Courses:    t.navigator().NumCourses(),
		Stats:      snap,
	})
}
