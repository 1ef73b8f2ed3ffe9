// Command perfbench is CourseNavigator's end-to-end serving benchmark.
// It runs an in-process internal/server on real loopback TCP, drives it
// from the same process over at most two connections with a seeded
// workload, checks every answer against an oracle Navigator, and prints
// the metrics as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},…}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. --repeat N runs the workload N
// times on one seed (consecutive seeds with --vary-seed) and prints each
// metric's median, quartiles and spread against its bound in
// BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/tenant"
)

// Run shape.
const (
	setups    = 201 // servers set up per run; setup_s is their median
	hitProbes = 50  // answered requests re-sent after a traced window without hits
)

func main() {
	workload := flag.String("workload", wlBrowse, "workload: browse-hot, plan-cold or cohort-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times on --seed and print medians and quartiles")
	varySeed := flag.Bool("vary-seed", false, "with --repeat: use seeds seed, seed+1, … instead of repeating one seed")
	root := flag.String("root", ".", "repository root (holds BENCHMARK.json)")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*root, *out, *workload, *seed, *varySeed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	spec, err := readSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err == nil {
		err = res.keep(spec.names(*trace == 1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// keep reduces the metrics to exactly the named ones, failing if one is
// missing; the others were printed on standard error.
func (r *result) keep(names []string) error {
	kept := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", n)
		}
		kept[n] = m
	}
	r.Metrics = kept
	return nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// newNavigator loads the embedded catalog exactly as the server's
// default tenant does (same synthetic offering history), for the
// generator, the oracle and the layer replays: each gets its own.
func newNavigator() (*coursenav.Navigator, error) {
	nav, _, err := server.Loader(tenant.Spec{ID: tenant.Default}.Loader(""))()
	return nav, err
}

// run performs one benchmark run.
func run(workload string, seed int64, d time.Duration, traced bool, outDir string) (*result, error) {
	// Set-up first, while nothing of the harness is on the heap: complete
	// server start-ups, each from a collected heap, all stopped again.
	setupS, err := timeSetups()
	if err != nil {
		return nil, err
	}

	genNav, err := newNavigator()
	if err != nil {
		return nil, err
	}
	genStart := time.Now()
	p, err := buildPlan(genNav, workload, seed, int(d/time.Second))
	if err != nil {
		return nil, err
	}
	logf("generated %d requests and %d cohort jobs in %v", len(p.warm)+len(p.stream), len(p.jobs)+len(p.probes), time.Since(genStart).Round(time.Millisecond))

	// The harness's own live heap — the plan and the reply reservoirs —
	// is read before the serving server exists and is not counted in
	// heap_live_mb and heap_peak_mb.
	w0, w1 := windowResult{replies: newTally(reservoirSize, p.distinct())}, windowResult{}
	if traced {
		w1.replies = newTally(reservoirSize, p.distinct())
	}
	runtime.GC()
	harnessHeap := readMetric("/gc/heap/live:bytes")
	ls, _, err := startServer()
	if err != nil {
		return nil, err
	}
	defer ls.stop()

	// Warm-up, untimed: connections, lazy state and (browse) the caches.
	warm := newTally(0, len(p.warm))
	c := &client{ls: ls, epoch: time.Now()}
	for i := range p.warm {
		c.send(i, &p.warm[i], warm)
	}
	c.close()
	for _, a := range warm.answers {
		if a.errMsg != "" {
			return nil, fmt.Errorf("warm-up request %s failed: %s", p.warm[a.idx].path, a.errMsg)
		}
	}
	p.warm = nil
	runtime.GC()

	var next, nextJob atomic.Int64
	var tr *tracer
	if traced {
		// Untraced then traced, half the time each: the throughput ratio
		// is the tracing overhead.
		if err = runWindow(ls, p, d/2, &next, &nextJob, nil, &w0); err != nil {
			return nil, err
		}
		tr = newTracer()
		if err = runWindow(ls, p, d-d/2, &next, &nextJob, tr, &w1); err != nil {
			return nil, err
		}
	} else if err = runWindow(ls, p, d, &next, &nextJob, nil, &w0); err != nil {
		return nil, err
	}
	if !p.cycle && int(next.Load()) >= len(p.stream) {
		logf("warning: all %d generated requests were answered before the window closed; the window ended early", len(p.stream))
	}
	if len(p.jobs) > 0 && int(nextJob.Load()) >= len(p.jobs) {
		logf("warning: all %d generated cohort jobs ran before the window closed", len(p.jobs))
	}
	tallies := []*tally{w0.replies}

	// Traced runs: hit probes where the window saw too few hits, then
	// the interactive layer replays.
	var probes *tally
	var lr *layerReplay
	replayNav, err := newNavigator()
	if err != nil {
		return nil, err
	}
	if traced {
		probes = hitProbe(ls, p, w1.replies)
		lr = replayRequests(replayNav, p, w1.replies.samples, tr)
		tallies = append(tallies, w1.replies, probes)
	}

	// Interactive correctness and metrics. The replies and the request
	// stream are dropped afterwards, so the cohort probes run against
	// the server's heap, not the harness's.
	oracleNav, err := newNavigator()
	if err != nil {
		return nil, err
	}
	at := func(idx int) *request { return &p.stream[idx%len(p.stream)] }
	failed := (&oracle{nav: oracleNav}).checkAnswers(tallies, at, logf)
	attempted := 0
	for _, t := range tallies {
		attempted += t.ok + t.failed
	}
	res := &result{Metrics: map[string]metric{}}
	endToEnd(res.Metrics, setupS, w0, harnessHeap)
	if traced {
		layerMetrics(res.Metrics, w0, w1, probes, lr, p)
		printStages(p, w1.replies, lr)
	}
	printEvidence(w0, w1)
	w0.replies, w1.replies, probes, tallies, p.stream = nil, nil, nil, nil, nil

	// Cohort jobs: on cohort-mixed those of the window (the traced half
	// on a traced run); elsewhere probe jobs run alone now, so the cohort
	// metrics exist on every workload.
	jobList, jobs := p.jobs, w0.jobs
	checked := append(append([]jobResult(nil), w0.jobs...), w1.jobs...)
	if traced {
		jobs = w1.jobs
	}
	if len(p.probes) > 0 {
		runtime.GC()
		c := &client{ls: ls, epoch: time.Now(), tr: tr}
		jobList, jobs = p.probes, nil
		for i := range p.probes {
			jobs = append(jobs, c.runJob(i, &p.probes[i], 0))
		}
		checked = jobs
	}
	rate, first := cohortRates(jobs)
	res.Metrics["cohort_members_per_s"] = metric{rate, "1/s"}
	res.Metrics["cohort_first_record_ms"] = metric{first, "ms"}
	if traced {
		if err := lr.replayJobs(replayNav, jobList, jobs, tr); err != nil {
			return nil, err
		}
		cohortLayerMetrics(res.Metrics, lr)
	}
	printJobs(jobs)
	failed += checkDigests(ls, jobList, checked)
	attempted += len(checked)

	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && attempted > 0
	if traced {
		res.Metrics["failed_frac"] = metric{float64(failed) / float64(attempted), "frac"}
		printSelfTimes(tr)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		logf("spans written to %s", path)
	}
	printMetrics(workload, seed, res)
	return res, nil
}

// timeSetups starts and stops the server setups times, each from a
// collected heap, and returns each set-up's duration in seconds.
func timeSetups() ([]float64, error) {
	out := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		runtime.GC()
		ls, took, err := startServer()
		if err != nil {
			return nil, err
		}
		ls.stop()
		out = append(out, took.Seconds())
	}
	return out, nil
}

// hitProbe re-sends up to hitProbes answered requests of a traced
// window that saw fewer hits than that, so server.hit_ms has samples on
// a workload whose traffic never repeats.
func hitProbe(ls *liveServer, p *plan, w *tally) *tally {
	out := newTally(hitProbes, hitProbes)
	if w.disp[dispHit] >= hitProbes {
		return out
	}
	c := &client{ls: ls, epoch: time.Now()}
	defer c.close()
	for _, s := range w.samples {
		if out.ok+out.failed == hitProbes {
			break
		}
		if s.disp == dispMiss {
			c.send(s.idx, &p.stream[s.idx%len(p.stream)], out)
		}
	}
	return out
}

// checkDigests re-runs every streamed job with workers 1 and counts the
// jobs that failed, carried member errors, or whose digest differs.
func checkDigests(ls *liveServer, jobList []cohortJob, results []jobResult) int {
	failed := 0
	c := &client{ls: ls, epoch: time.Now()}
	for _, jr := range results {
		switch {
		case jr.errMsg != "":
			logf("cohort job %d (%s) failed: %s", jr.job, jr.kind, jr.errMsg)
			failed++
			continue
		case jr.recordErrs > 0:
			logf("cohort job %d (%s): %d member records carry errors", jr.job, jr.kind, jr.recordErrs)
			failed++
			continue
		}
		serial := c.runJob(jr.job, &jobList[jr.job], 1)
		if serial.errMsg != "" || serial.digest != jr.digest {
			logf("cohort job %d (%s): digest differs from the workers:1 run %s", jr.job, jr.kind, serial.errMsg)
			failed++
		}
	}
	return failed
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// endToEnd fills the interactive metrics of an untraced window: the
// bounded end-to-end ones and the wall-clock ones reported beside them.
// heap_live_mb and heap_peak_mb are the window's median and peak live
// heap less the harness's own, harnessHeap.
func endToEnd(m map[string]metric, setupS []float64, w windowResult, harnessHeap uint64) {
	t := w.replies
	lat := make([]float64, len(t.samples))
	var byEp [numEndpoints][]float64
	for i, s := range t.samples {
		lat[i] = ms(s.total)
		byEp[s.ep] = append(byEp[s.ep], lat[i])
	}
	sort.Float64s(lat)
	m["setup_s"] = metric{median(setupS), "s"}
	m["throughput_rps"] = metric{t.throughput(), "1/s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		m["latency_p50_ms."+ep.String()] = metric{median(byEp[ep]), "ms"}
	}
	windowMembers := 0
	for _, j := range w.jobs {
		windowMembers += j.members
	}
	ops := float64(t.ok + windowMembers)
	m["cpu_ms_per_op"] = metric{ms(w.cpu) / ops, "ms"}
	m["allocs_per_op"] = metric{float64(w.mallocs) / ops, "count"}
	m["alloc_kb_per_op"] = metric{float64(w.allocBytes) / 1024 / ops, "KB"}
	heap := sortedCopy(w.heap)
	m["heap_live_mb"] = metric{(quantile(heap, 0.5) - float64(harnessHeap)) / (1 << 20), "MB"}
	m["heap_peak_mb"] = metric{(quantile(heap, 1) - float64(harnessHeap)) / (1 << 20), "MB"}
}

// cohortRates returns member records per second of job wall time, the
// geometric mean over the two job kinds of each kind's median (the kinds
// differ by an order of magnitude, so a plain median would flip with the
// job mix), and the median time to the first record of the synthesis
// jobs. An explicit job's first record is one member's plan, too small
// and variable to compare.
func cohortRates(jobs []jobResult) (membersPerS, firstMs float64) {
	rate := map[string][]float64{}
	var first []float64
	for _, j := range jobs {
		if j.errMsg == "" && j.members > 0 {
			rate[j.kind] = append(rate[j.kind], float64(j.members)/j.total.Seconds())
			if j.kind == "synth" {
				first = append(first, ms(j.firstRec))
			}
		}
	}
	if len(rate) == 0 {
		return 0, median(first)
	}
	membersPerS = 1
	for _, r := range rate {
		membersPerS *= median(r)
	}
	return math.Pow(membersPerS, 1/float64(len(rate))), median(first)
}
