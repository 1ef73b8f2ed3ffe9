package main

// The system under test and the load that drives it: an in-process
// internal/server on real loopback TCP, closed-loop clients on at most
// two connections, and the counter scrapes around the timed window.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/tenant"
)

// maxConns is the client connection limit: the machine's core count,
// so the load never needs more connections than cores.
const maxConns = 2

// liveServer is one server instance listening on loopback.
type liveServer struct {
	hs     *http.Server
	addr   string // host:port
	base   string
	client *http.Client
	done   chan struct{}
}

// startServer builds a server the way cmd/coursenav-server does for the
// embedded catalog, serves it on a loopback port, registers the
// benchmark tenants through the admin API and waits for /healthz. The
// returned duration is the set-up time.
func startServer() (*liveServer, time.Duration, error) {
	began := time.Now()
	nav, _, err := server.Loader(tenant.Spec{ID: tenant.Default}.Loader(""))()
	if err != nil {
		return nil, 0, fmt.Errorf("loading catalog: %w", err)
	}
	s := server.New(nav)
	s.CacheBytes = server.DefaultCacheBytes
	s.Cache.SetBudget(server.DefaultCacheBytes)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listening: %w", err)
	}
	ls := &liveServer{
		hs:   &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr().String(),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	var m tenant.Manifest
	for _, id := range registeredTenants {
		m.Tenants = append(m.Tenants, tenant.Spec{ID: id})
	}
	if code, body, err := ls.do(http.MethodPost, "/api/v1/admin/tenants", mustJSON(m)); err != nil || code != http.StatusOK {
		ls.stop()
		return nil, 0, fmt.Errorf("registering tenants: status %d %s %v", code, body, err)
	}
	for {
		code, _, err := ls.do(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(began) > 30*time.Second {
			ls.stop()
			return nil, 0, fmt.Errorf("server never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return ls, time.Since(began), nil
}

// stop shuts the server down and waits until its serve loop has ended.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // in-flight requests are ours and already finished
	<-ls.done
	ls.client.CloseIdleConnections()
}

// do sends one request and returns the status and whole body.
func (ls *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ls.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serverCounters are the monotonic totals read from /api/v1/stats: the
// cache block (resultcache.Stats summed over tenant partitions) and the
// admission block (controller counters). The top-level cacheHits,
// queued and cohort* fields are recomputed from the 4096-event usage
// ring, stop being totals once it wraps, and are deliberately not read.
type serverCounters struct {
	Cache struct {
		Evictions int64 `json:"evictions"`
		Bytes     int64 `json:"bytes"`
	} `json:"cache"`
	Admission struct {
		Queued        int64 `json:"queued"`
		ShedCostly    int64 `json:"shedCostly"`
		ShedQueueFull int64 `json:"shedQueueFull"`
		ShedTimeout   int64 `json:"shedTimeout"`
	} `json:"admission"`
}

func (ls *liveServer) counters() (serverCounters, error) {
	var c serverCounters
	code, body, err := ls.do(http.MethodGet, "/api/v1/stats", nil)
	if err != nil || code != http.StatusOK {
		return c, fmt.Errorf("stats: status %d %v", code, err)
	}
	return c, json.Unmarshal(body, &c)
}

// X-Cache dispositions, tallied client-side.
const (
	dispNone = iota // the route is not cached (options)
	dispMiss
	dispHit
	dispCoalesced
	dispStale
)

var dispNames = map[string]uint8{"miss": dispMiss, "hit": dispHit, "coalesced": dispCoalesced, "stale": dispStale}

// answer is one distinct reply: the canonical request it answers and
// the body kept as a fingerprint — the summary prefix verbatim (it
// carries elapsedMs, which differs run to run) and a hash of the rest,
// which the oracle must reproduce byte for byte. Equal replies (cache
// replays) share one answer.
type answer struct {
	idx    int // stream index of one request it answered
	status int
	prefix []byte
	tail   uint64
	errMsg string // transport error or the non-2xx body
	count  int    // replies carrying exactly this answer
}

type answerKey struct {
	key    string // canonical request key
	status int
	prefix uint64 // hash of the prefix
	tail   uint64
	errMsg string
}

// sample is one successful interactive reply kept in a window's
// reservoir.
type sample struct {
	idx   int // position in the plan stream
	ep    endpoint
	disp  uint8
	start time.Duration // since the window opened
	ttfb  time.Duration // until the status line arrived
	total time.Duration // until the last body byte arrived
	size  int
	ans   *answer
}

// reservoirSize bounds the replies a window keeps for percentiles: a
// uniform sample of them, so memory is fixed however many complete.
const reservoirSize = 1 << 15

// prefixBytes is the prefix room reserved per expected distinct answer;
// about three in five answers carry a summary prefix of ~170 bytes.
const prefixBytes = 160

// tally collects one window's replies: exact counts, a uniform
// reservoir of successful replies, and the distinct answers. Its storage
// is allocated up front for the expected number of distinct answers, so
// a window adds next to nothing to the heap and allocation figures.
type tally struct {
	mu      sync.Mutex
	rng     *rand.Rand
	ok      int // successful replies
	failed  int // transport errors and non-2xx replies
	last    time.Duration
	disp    [dispStale + 1]int
	byEp    [numEndpoints]int
	samples []sample
	answers map[answerKey]*answer
	store   []answer // backing for answers, up to its capacity
	arena   []byte   // backing for prefixes, up to its capacity
}

// newTally returns a tally with a reservoir of samples replies and room
// for answers distinct answers; more still fit, at the cost of an
// allocation each.
func newTally(samples, answers int) *tally {
	return &tally{
		rng:     rand.New(rand.NewSource(1)),
		samples: make([]sample, 0, samples),
		answers: make(map[answerKey]*answer, answers),
		store:   make([]answer, 0, answers),
		arena:   make([]byte, 0, answers*prefixBytes),
	}
}

// keep stores a new answer, in the reserved room while it lasts.
func (t *tally) keep(a answer) *answer {
	if n := len(a.prefix); n > 0 {
		if len(t.arena)+n <= cap(t.arena) {
			at := len(t.arena)
			t.arena = append(t.arena, a.prefix...)
			a.prefix = t.arena[at : at+n : at+n]
		} else {
			a.prefix = bytes.Clone(a.prefix)
		}
	}
	if len(t.store) < cap(t.store) {
		t.store = append(t.store, a)
		return &t.store[len(t.store)-1]
	}
	return &a
}

// add records one reply; a failed reply carries errMsg and no sample.
// prefix may alias the reply buffer: it is copied only for a new answer.
func (t *tally) add(r *request, s sample, status int, prefix []byte, tail uint64, errMsg string) {
	k := answerKey{key: r.key, status: status, prefix: maphash.Bytes(hashSeed, prefix), tail: tail, errMsg: errMsg}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.answers[k]
	if a == nil {
		a = t.keep(answer{idx: s.idx, status: status, prefix: prefix, tail: tail, errMsg: errMsg})
		t.answers[k] = a
	}
	a.count++
	if errMsg != "" {
		t.failed++
		return
	}
	s.ans = a
	t.ok++
	t.last = max(t.last, s.start+s.total)
	t.disp[s.disp]++
	t.byEp[s.ep]++
	if len(t.samples) < cap(t.samples) {
		t.samples = append(t.samples, s)
	} else if j := t.rng.Intn(t.ok); j < len(t.samples) {
		t.samples[j] = s
	}
}

// throughput is successful replies per second of window.
func (t *tally) throughput() float64 { return float64(t.ok) / t.last.Seconds() }

var hashSeed = maphash.MakeSeed()

// fingerprint splits a 200 body into its checked parts; prefix aliases
// body.
func fingerprint(ep endpoint, body []byte) (prefix []byte, tail uint64) {
	var marker string
	switch ep {
	case epGoalCount:
		return body, 0
	case epRanked:
		marker = `,"paths":`
	case epGoalGraph:
		marker = `,"graph":`
	default:
		return nil, maphash.Bytes(hashSeed, body)
	}
	i := bytes.Index(body, []byte(marker))
	if i < 0 {
		return body[:min(len(body), 4096)], 0
	}
	return body[:i], maphash.Bytes(hashSeed, body[i:])
}

// client runs one closed-loop connection. Interactive requests go over
// a plain keep-alive HTTP/1.1 connection that the client writes and
// parses itself, reusing its buffers, so the harness adds next to no
// allocations, CPU or heap of its own to the window's process-wide
// figures; cohort jobs and counter scrapes use the net/http client.
type client struct {
	ls    *liveServer
	epoch time.Time
	tr    *tracer // nil when not tracing
	conn  net.Conn
	rd    *bufio.Reader
	wbuf  []byte // request bytes
	body  []byte // reply body
}

// close closes the client's connection, if one is open.
func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.rd = nil, nil
	}
}

// send issues r, the stream's request idx, and records the reply in t.
func (c *client) send(idx int, r *request, t *tally) {
	s := sample{idx: idx, ep: r.ep}
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.ls.addr)
		if err != nil {
			t.add(r, s, 0, nil, 0, err.Error())
			return
		}
		c.conn = conn
		if c.rd == nil {
			c.rd = bufio.NewReaderSize(conn, 64<<10)
		}
		c.rd.Reset(conn)
	}
	w := c.wbuf[:0]
	if r.body != nil {
		w = append(w, "POST "...)
	} else {
		w = append(w, "GET "...)
	}
	w = append(w, r.path...)
	w = append(w, " HTTP/1.1\r\nHost: bench\r\n"...)
	if r.body != nil {
		w = append(w, "Content-Type: application/json\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(r.body)), 10)
		w = append(w, "\r\n\r\n"...)
		w = append(w, r.body...)
	} else {
		w = append(w, "\r\n"...)
	}
	c.wbuf = w
	t0 := time.Now()
	if _, err := c.conn.Write(w); err != nil {
		c.close()
		t.add(r, s, 0, nil, 0, "writing request: "+err.Error())
		return
	}
	status, disp, t1, err := c.readReply()
	t2 := time.Now()
	if err != nil {
		c.close()
		t.add(r, s, status, nil, 0, "reading reply: "+err.Error())
		return
	}
	s.start, s.ttfb, s.total = t0.Sub(c.epoch), t1.Sub(t0), t2.Sub(t0)
	s.size = len(c.body)
	s.disp = disp
	if c.tr != nil {
		c.tr.request(idx, r.ep.String(), t0, t1, t2)
	}
	if status != http.StatusOK {
		t.add(r, s, status, nil, 0, strings.TrimSpace(string(c.body)))
		return
	}
	prefix, tail := fingerprint(r.ep, c.body)
	t.add(r, s, status, prefix, tail, "")
}

// readReply reads one HTTP/1.1 response into c.body and returns its
// status, X-Cache disposition and the time its status line arrived. It
// handles the two framings net/http servers use, Content-Length and
// chunked, and drops the connection when the server asks to close it.
func (c *client) readReply() (status int, disp uint8, first time.Time, err error) {
	line, err := c.rd.ReadSlice('\n')
	first = time.Now()
	if err != nil {
		return 0, 0, first, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, first, fmt.Errorf("malformed status line %q", line)
	}
	status, ok := parseInt(line[9:12], 10)
	if !ok {
		return 0, 0, first, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = c.rd.ReadSlice('\n')
		if err != nil {
			return status, disp, first, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return status, disp, first, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = parseInt(value, 10); !ok {
				return status, disp, first, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		case bytes.EqualFold(name, []byte("X-Cache")):
			disp = dispNames[string(value)]
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.rd.ReadSlice('\n')
			if err != nil {
				return status, disp, first, err
			}
			size, ok := parseInt(bytes.TrimRight(line, "\r\n"), 16)
			if !ok {
				return status, disp, first, fmt.Errorf("malformed chunk size %q", line)
			}
			if size == 0 {
				break
			}
			if err = c.readBody(size); err != nil {
				return status, disp, first, err
			}
			if _, err = c.rd.Discard(2); err != nil { // the chunk's CRLF
				return status, disp, first, err
			}
		}
		for { // trailer
			if line, err = c.rd.ReadSlice('\n'); err != nil {
				return status, disp, first, err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				break
			}
		}
	case length >= 0:
		err = c.readBody(length)
	default:
		return status, disp, first, errors.New("reply has neither Content-Length nor chunked framing")
	}
	if closing {
		c.close()
	}
	return status, disp, first, err
}

// parseInt parses a non-negative number in base 10 or 16 without
// allocating.
func parseInt(b []byte, base int) (int, bool) {
	if len(b) == 0 || len(b) > 15 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		d := strings.IndexByte("0123456789abcdef"[:base], ch|0x20)
		if d < 0 {
			return 0, false
		}
		n = n*base + d
	}
	return n, true
}

// readBody appends n body bytes to c.body.
func (c *client) readBody(n int) error {
	at := len(c.body)
	c.body = slices.Grow(c.body, n)[:at+n]
	_, err := io.ReadFull(c.rd, c.body[at:])
	return err
}

// jobResult is one streamed cohort job.
type jobResult struct {
	job        int
	kind       string
	members    int
	firstRec   time.Duration // POST until the first member record arrived
	total      time.Duration // POST until the stream ended
	units      int64
	coalesced  int64
	digest     [32]byte // member records plus the summary without its cache-dependent coalesced count
	recordErrs int      // member records carrying an error, per the summary
	errMsg     string
}

type jobSummary struct {
	Errors    int   `json:"errors"`
	Units     int64 `json:"units"`
	Coalesced int64 `json:"coalesced"`
}

// runJob streams one cohort job and digests its NDJSON.
func (c *client) runJob(i int, j *cohortJob, workers int) jobResult {
	res := jobResult{job: i, kind: j.kind}
	req, err := http.NewRequest(http.MethodPost, c.ls.base+j.path(), bytes.NewReader(j.body(workers)))
	if err != nil {
		res.errMsg = err.Error()
		return res
	}
	t0 := time.Now()
	resp, err := c.ls.client.Do(req)
	if err != nil {
		res.errMsg = err.Error()
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		res.errMsg = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return res
	}
	h := sha256.New()
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	sawSummary := false
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte(`{"member"`)):
				if res.members == 0 {
					res.firstRec = time.Since(t0)
				}
				res.members++
				h.Write(line)
			case bytes.HasPrefix(line, []byte(`{"summary"`)):
				var raw struct {
					Summary map[string]json.RawMessage `json:"summary"`
				}
				var sum struct {
					Summary jobSummary `json:"summary"`
				}
				if json.Unmarshal(line, &raw) != nil || json.Unmarshal(line, &sum) != nil {
					res.errMsg = "unparseable summary: " + string(line)
					break
				}
				delete(raw.Summary, "coalesced")
				h.Write(mustJSON(raw.Summary))
				res.units, res.coalesced = sum.Summary.Units, sum.Summary.Coalesced
				res.recordErrs = sum.Summary.Errors
				sawSummary = true
			default:
				res.errMsg = "in-band error: " + strings.TrimSpace(string(line))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			res.errMsg = "reading stream: " + err.Error()
			break
		}
	}
	res.total = time.Since(t0)
	if c.tr != nil {
		c.tr.job(i, t0, t0.Add(res.firstRec), t0.Add(res.total))
	}
	if res.errMsg == "" && !sawSummary {
		res.errMsg = "stream ended without a summary"
	}
	if res.errMsg == "" && res.members != j.members {
		res.errMsg = fmt.Sprintf("%d member records, want %d", res.members, j.members)
	}
	copy(res.digest[:], h.Sum(nil))
	return res
}

// windowResult is what one timed window measured.
type windowResult struct {
	replies    *tally
	jobs       []jobResult
	elapsed    time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	heap       []float64 // live heap samples, bytes
	before     serverCounters
	after      serverCounters
}

// repliesPerJob is how many interactive requests each cohort job
// started releases on cohort-mixed. Unpaced, the interactive connection
// completes about twice as many per job, and the ratio of replies to
// members moved with the machine and the seed; paced, every run holds the
// same mix, so per-op figures compare across runs.
const repliesPerJob = 700

// runWindow drives the plan for d into w, whose replies tally the
// caller has allocated: two closed-loop interactive connections, or on
// cohort-mixed one interactive connection, paced by repliesPerJob, and
// one streaming cohort jobs. next is the shared stream cursor, so a later window continues
// where an earlier one stopped.
func runWindow(ls *liveServer, p *plan, d time.Duration, next *atomic.Int64, nextJob *atomic.Int64, tr *tracer, w *windowResult) error {
	var err error
	if w.before, err = ls.counters(); err != nil {
		return err
	}
	cpu0, allocs0, bytes0 := cpuTime(), heapAllocs(), heapAllocBytes()
	w.heap = make([]float64, 0, d/heapEvery+2)
	stopHeap := sampleHeap(&w.heap)
	epoch := time.Now()
	deadline := epoch.Add(d)

	interactive := maxConns
	var release chan struct{}
	if len(p.jobs) > 0 {
		interactive = 1
		release = make(chan struct{}, len(p.jobs)*repliesPerJob)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for k := 0; k < interactive; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{ls: ls, epoch: epoch, tr: tr}
			defer c.close()
			for time.Now().Before(deadline) {
				if release != nil {
					select {
					case <-release:
					case <-ctx.Done():
						return
					}
				}
				i := int(next.Add(1) - 1)
				if i >= len(p.stream) && !p.cycle {
					break
				}
				c.send(i, &p.stream[i%len(p.stream)], w.replies)
			}
		}()
	}
	if len(p.jobs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{ls: ls, epoch: epoch, tr: tr}
			for time.Now().Before(deadline) {
				i := int(nextJob.Add(1) - 1)
				if i >= len(p.jobs) {
					break
				}
				for k := 0; k < repliesPerJob; k++ {
					release <- struct{}{}
				}
				r := c.runJob(i, &p.jobs[i], 0)
				mu.Lock()
				w.jobs = append(w.jobs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(epoch)
	stopHeap()
	w.cpu, w.mallocs, w.allocBytes = cpuTime()-cpu0, heapAllocs()-allocs0, heapAllocBytes()-bytes0
	w.after, err = ls.counters()
	return err
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the runtime's cumulative count of heap allocations.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects") }

// heapAllocBytes is the runtime's cumulative count of bytes allocated
// on the heap.
func heapAllocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapEvery is the live heap's sampling period.
const heapEvery = 10 * time.Millisecond

// sampleHeap appends the live heap (as marked by the latest garbage
// collection) to samples every heapEvery until the returned stop
// function is called.
func sampleHeap(samples *[]float64) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	read := func() { *samples = append(*samples, float64(readMetric("/gc/heap/live:bytes"))) }
	go func() {
		defer close(done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
