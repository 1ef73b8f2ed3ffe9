// Command benchguard gates benchmark regressions against a checked-in
// baseline (BENCH_baseline.json at the repository root).
//
// It reads `go test -bench -benchmem` output on stdin and compares each
// benchmark against the baseline:
//
//   - allocs/op may grow by at most 25% (plus a 2-alloc absolute slack
//     for tiny counts) — allocation counts are deterministic, so this
//     is a tight gate;
//   - B/op may grow by at most 25% (plus a 16 KiB absolute slack, since
//     map growth and pooled buffers make small byte counts mildly
//     run-dependent) — so storage sized to the query cannot silently
//     return to a fixed per-run footprint;
//   - ns/op may grow by at most 3× — wall-clock is noisy across
//     machines and -benchtime settings, so the gate only catches
//     order-of-magnitude regressions.
//
// Modes:
//
//	benchguard -baseline BENCH_baseline.json            # gate (default)
//	benchguard -baseline BENCH_baseline.json -update    # rewrite baseline from stdin
//	benchguard -baseline BENCH_baseline.json -extract   # print baseline raw bench
//	                                                    # lines (benchstat old file)
//
// The baseline stores both parsed metrics and the raw benchmark lines,
// so CI can feed `-extract` output and a fresh run to benchstat for a
// human-readable delta while this command enforces the hard gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the BENCH_baseline.json schema.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// Benchmarks maps the normalised benchmark name (no -GOMAXPROCS
	// suffix) to its recorded metrics.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's recorded metrics.
type Entry struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Raw is the original benchmark output line, kept so -extract can
	// reconstruct a benchstat-compatible old file.
	Raw string `json:"raw"`
}

// benchLine matches `go test -bench -benchmem` result lines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

func parseBench(line string) (name string, e Entry, ok bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", Entry{}, false
	}
	e.Raw = line
	e.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
	rest := m[3]
	if bm := regexp.MustCompile(`(\d+) B/op`).FindStringSubmatch(rest); bm != nil {
		e.BytesPerOp, _ = strconv.ParseInt(bm[1], 10, 64)
	}
	if am := regexp.MustCompile(`(\d+) allocs/op`).FindStringSubmatch(rest); am != nil {
		e.AllocsPerOp, _ = strconv.ParseInt(am[1], 10, 64)
	}
	return m[1], e, true
}

func readInput(r *bufio.Scanner) map[string]Entry {
	out := map[string]Entry{}
	for r.Scan() {
		if name, e, ok := parseBench(r.Text()); ok {
			out[name] = e
		}
	}
	return out
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from stdin instead of gating")
	extract := flag.Bool("extract", false, "print the baseline's raw bench lines (for benchstat)")
	maxNsRatio := flag.Float64("max-ns-ratio", 3.0, "max allowed ns/op growth factor")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.25, "max allowed allocs/op growth factor")
	flag.Parse()

	if *extract {
		base, err := loadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		for _, name := range sortedKeys(base.Benchmarks) {
			fmt.Println(base.Benchmarks[name].Raw)
		}
		return
	}

	current := readInput(bufio.NewScanner(os.Stdin))
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin (pattern mismatch or build failure?)"))
	}

	if *update {
		base := Baseline{
			Note:       "Regenerate with `make bench-baseline` on a quiet machine; gated by cmd/benchguard (allocs +25%, B/op +25%, ns 3x).",
			Benchmarks: current,
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	lines, failures := gate(base, current, limits{ns: *maxNsRatio, allocs: *maxAllocRatio, bytes: bytesRatio})
	for _, l := range lines {
		fmt.Println(l)
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d benchmark regression(s)", failures))
	}
}

// limits are the gate's growth factors over the baseline.
type limits struct {
	ns, allocs, bytes float64
}

// B/op growth factor, and the absolute slack added to the ratio caps
// for small counts.
const (
	bytesRatio = 1.25
	allocSlack = 2
	bytesSlack = 16 << 10
)

// gate compares a run against the baseline and returns the report lines
// (one per baseline benchmark, plus notes for unrecorded ones) and the
// number of regressions.
func gate(base Baseline, current map[string]Entry, lim limits) (lines []string, failures int) {
	fail := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf("benchguard: FAIL "+format, args...))
		failures++
	}
	for _, name := range sortedKeys(base.Benchmarks) {
		want := base.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			fail("%s: present in baseline but missing from this run", name)
			continue
		}
		before := failures
		// Allocations: deterministic, tight gate with small absolute slack.
		if allocCap := int64(float64(want.AllocsPerOp)*lim.allocs) + allocSlack; got.AllocsPerOp > allocCap {
			fail("%s: %d allocs/op exceeds cap %d (baseline %d)",
				name, got.AllocsPerOp, allocCap, want.AllocsPerOp)
		}
		// Bytes: the same ratio gate, with slack for run-to-run jitter.
		// A baseline without bytes (recorded without -benchmem) is not gated.
		if want.BytesPerOp > 0 {
			if bytesCap := int64(float64(want.BytesPerOp)*lim.bytes) + bytesSlack; got.BytesPerOp > bytesCap {
				fail("%s: %d B/op exceeds cap %d (baseline %d)",
					name, got.BytesPerOp, bytesCap, want.BytesPerOp)
			}
		}
		// Wall clock: loose gate, catches order-of-magnitude regressions.
		if want.NsPerOp > 0 && got.NsPerOp > want.NsPerOp*lim.ns {
			fail("%s: %.0f ns/op exceeds %.1fx baseline %.0f",
				name, got.NsPerOp, lim.ns, want.NsPerOp)
		}
		if failures == before {
			lines = append(lines, fmt.Sprintf("benchguard: ok   %s: %.0f ns/op (base %.0f), %d B/op (base %d), %d allocs/op (base %d)",
				name, got.NsPerOp, want.NsPerOp, got.BytesPerOp, want.BytesPerOp, got.AllocsPerOp, want.AllocsPerOp))
		}
	}
	for _, name := range sortedKeys(current) {
		if _, ok := base.Benchmarks[name]; !ok {
			lines = append(lines, fmt.Sprintf("benchguard: note %s: not in baseline (run `make bench-baseline` to record it)", name))
		}
	}
	return lines, failures
}

func loadBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("parsing %s: %w", path, err)
	}
	return base, nil
}

func sortedKeys(m map[string]Entry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
