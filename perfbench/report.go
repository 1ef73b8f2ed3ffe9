package main

// Per-layer metrics of a traced run, the human-readable report on
// standard error, and repeat mode.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// layerMetrics fills the interactive per-layer metrics of a traced run
// from the traced window w1 (the untraced w0 gives the overhead base),
// the hit probes and the replays.
func layerMetrics(m map[string]metric, w0, w1 windowResult, probes *tally, lr *layerReplay, p *plan) {
	t := w1.replies
	var edge, hit, body []float64
	var kb float64
	for _, s := range t.samples {
		body = append(body, ms(s.total-s.ttfb))
		kb += float64(s.size) / 1024
		switch s.disp {
		case dispHit:
			hit = append(hit, ms(s.total))
		case dispNone, dispMiss:
			if e, rd, ok := engineMs(s, p, lr); ok {
				edge = append(edge, ms(s.total)-e-rd)
			}
		}
	}
	if len(hit) < hitProbes {
		for _, s := range probes.samples {
			if s.disp == dispHit {
				hit = append(hit, ms(s.total))
			}
		}
	}
	explore := t.ok - t.disp[dispNone]
	m["server.edge_ms.p50"] = metric{median(edge), "ms"}
	m["server.hit_ms.p50"] = metric{median(hit), "ms"}
	m["server.body_ms.p50"] = metric{median(body), "ms"}
	m["server.resp_kb.mean"] = metric{kb / math.Max(float64(len(t.samples)), 1), "KB"}
	m["resultcache.hit_ratio"] = metric{ratio(t.disp[dispHit], explore), "frac"}
	m["resultcache.coalesced_ratio"] = metric{ratio(t.disp[dispCoalesced], explore), "frac"}
	// Server counters over both windows: they are totals, and tracing
	// does not touch the server.
	m["resultcache.evictions"] = metric{float64(w1.after.Cache.Evictions - w0.before.Cache.Evictions), "count"}
	m["resultcache.bytes_mb"] = metric{float64(w1.after.Cache.Bytes) / (1 << 20), "MB"}
	adm0, adm1 := w0.before.Admission, w1.after.Admission
	m["admission.queued"] = metric{float64(adm1.Queued - adm0.Queued), "count"}
	m["admission.shed"] = metric{float64(adm1.ShedCostly + adm1.ShedQueueFull + adm1.ShedTimeout -
		adm0.ShedCostly - adm0.ShedQueueFull - adm0.ShedTimeout), "count"}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		m["engine."+ep.String()+"_ms.p50"] = metric{median(lr.engineMs[ep]), "ms"}
	}
	m["engine.goal_count.statuses"] = metric{mean(lr.statuses), "count"}
	m["engine.pruned_frac"] = metric{lr.pruned / math.Max(lr.nodes, 1), "frac"}
	m["engine.allocs_per_call"] = metric{float64(lr.allocs) / math.Max(float64(lr.calls), 1), "count"}
	m["render.goal_graph_ms.p50"] = metric{median(lr.renderMs), "ms"}
	m["trace.overhead_frac"] = metric{1 - t.throughput()/w0.replies.throughput(), "frac"}
}

// cohortLayerMetrics fills the cohort per-layer metrics from the job
// replays.
func cohortLayerMetrics(m map[string]metric, lr *layerReplay) {
	m["cohort.synthesize_ms_per_member"] = metric{median(lr.synthMsPerMember), "ms"}
	m["cohort.plan_ms_per_member"] = metric{median(lr.planMsPerMember), "ms"}
	m["cohort.shared_hit_ratio"] = metric{float64(lr.sharedHits) / math.Max(float64(lr.sharedUnits), 1), "frac"}
	m["cohort.emit_ms_per_member"] = metric{median(lr.emitMsPerMember), "ms"}
	m["cohort.units_per_member"] = metric{median(lr.unitsPerMember), "count"}
}

// engineMs is the engine and render time inside a computed reply: the
// summary's elapsedMs where the body carries one, else the replayed
// call's time; render is the replayed Graph.WriteJSON for goal graphs.
// ok is false when the reply has no measured engine time.
func engineMs(s sample, p *plan, lr *layerReplay) (engine, render float64, ok bool) {
	key := p.stream[s.idx%len(p.stream)].key
	switch s.ep {
	case epGoalCount, epRanked, epGoalGraph:
		sum, parsed := parseSummary(s.ep, s.ans.prefix)
		if !parsed {
			return 0, 0, false
		}
		if s.ep == epGoalGraph {
			render, ok = lr.renderByKey[key]
			return sum.ElapsedMs, render, ok
		}
		return sum.ElapsedMs, 0, true
	}
	engine, ok = lr.engineByKey[key]
	return engine, 0, ok
}

func ratio(a, b int) float64 { return float64(a) / math.Max(float64(b), 1) }

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / math.Max(float64(len(xs)), 1)
}

// printStages prints, per endpoint, how the traced window's mean HTTP
// latency of computed replies splits into engine (summary elapsedMs or
// the replayed call), render (replayed, goal graphs), body transfer and
// the edge remainder.
func printStages(p *plan, t *tally, lr *layerReplay) {
	fmt.Fprintln(os.Stderr, "stage split of computed replies (traced window, means in ms):")
	fmt.Fprintf(os.Stderr, "  %-11s %6s %9s %9s %9s %9s %9s\n", "endpoint", "n", "latency", "engine", "render", "body", "edge")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		var n, lat, eng, rend, body float64
		for _, s := range t.samples {
			if s.ep != ep || (s.disp != dispNone && s.disp != dispMiss) {
				continue
			}
			e, rd, ok := engineMs(s, p, lr)
			if !ok {
				continue
			}
			n++
			lat += ms(s.total)
			eng += e
			rend += rd
			body += ms(s.total - s.ttfb)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "  %-11s %6.0f %9.3f %9.3f %9.3f %9.3f %9.3f\n", ep, n, lat/n, eng/n, rend/n, body/n, (lat-eng-rend-body)/n)
		}
	}
}

// printSelfTimes prints each span name's count, mean duration and mean
// self time.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "span self times (ms; replayed layer calls are logical children of first_byte or the job):")
	for _, k := range names {
		a := self[k]
		fmt.Fprintf(os.Stderr, "  %-28s n=%-7.0f mean %9.4f self %9.4f\n", k, a[0], a[1], a[2])
	}
}

// printEvidence prints the reply counts per endpoint and the measured
// properties that show the workload does what it claims: the hit ratio
// and the cache evictions.
func printEvidence(w0, w1 windowResult) {
	var n [numEndpoints]int
	explore, hits := 0, 0
	last := w0
	for _, w := range []windowResult{w0, w1} {
		if w.replies == nil {
			continue
		}
		last = w
		for ep, k := range w.replies.byEp {
			n[ep] += k
		}
		explore += w.replies.ok - w.replies.disp[dispNone]
		hits += w.replies.disp[dispHit]
	}
	fmt.Fprintf(os.Stderr, "replies per endpoint %v (options, goal_count, ranked, whatif, goal_graph)\n", n)
	fmt.Fprintf(os.Stderr, "evidence: hit ratio %.4f of %d explore replies, %d cache evictions\n",
		ratio(hits, explore), explore, last.after.Cache.Evictions-w0.before.Cache.Evictions)
}

// printJobs prints each cohort job's timings and the job kinds seen.
func printJobs(jobs []jobResult) {
	kinds := map[string]int{}
	for _, j := range jobs {
		kinds[j.kind]++
		fmt.Fprintf(os.Stderr, "  job %d %-8s members %4d first %8.2fms total %8.2fms units %d coalesced %d\n",
			j.job, j.kind, j.members, ms(j.firstRec), ms(j.total), j.units, j.coalesced)
	}
	fmt.Fprintf(os.Stderr, "evidence: cohort jobs %v\n", kinds)
}

// printMetrics prints the run's verdict and every metric with its unit.
func printMetrics(workload string, seed int64, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", workload, seed, res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		j = max(1, min(j, len(d)-1))
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names each mode reports, and the end-to-end bounds.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readSpec(root string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// names lists the metrics a run reports: per-layer when traced, else
// end-to-end.
func (s benchSpec) names(traced bool) []string {
	var out []string
	if traced {
		for _, m := range s.PerLayer {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range s.EndToEnd {
		out = append(out, m.Name)
	}
	return out
}

// repeatRuns runs the workload n times in fresh processes — on seed
// each time, the noise a comparison of two commits on one seed faces,
// or with varySeed on seeds seed … seed+n-1, which adds the inputs'
// variation — and prints each metric's median, quartiles and spread
// (interquartile distance over the median). A metric whose spread
// exceeds its bound is unresolved: two commits cannot be told apart on
// it at this run length.
func repeatRuns(root, outDir, workload string, seed int64, varySeed bool, seconds, trace, n int) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, e := range spec.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	seedOf := func(i int) int64 {
		if varySeed {
			return seed + int64(i)
		}
		return seed
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seedOf(i), 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--root", root, "--out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		var res result
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d) was not correct: %d of %d failed", i, seedOf(i), res.Failed, res.Attempted)
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s: %d runs of %ds, seeds %d..%d\n", workload, n, seconds, seed, seedOf(n-1))
	fmt.Fprintf(w, "%-34s %6s %13s %13s %13s %8s %6s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		verdict := ""
		if b, ok := bounds[k]; ok {
			switch {
			case spread > b:
				verdict = "UNRESOLVED: spread exceeds bound"
			case spread > b/3:
				verdict = "steady (above a third of the bound)"
			default:
				verdict = "steady"
			}
			fmt.Fprintf(w, "%-34s %6s %13.6g %13.6g %13.6g %8.4f %6.3f  %s\n", k, units[k], q1, q2, q3, spread, b, verdict)
		} else {
			fmt.Fprintf(w, "%-34s %6s %13.6g %13.6g %13.6g %8.4f %6s  %s\n", k, units[k], q1, q2, q3, spread, "-", verdict)
		}
	}
	return w.Flush()
}
