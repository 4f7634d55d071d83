// Command perfbench is the repository benchmark. It runs one named
// workload through the tool's public entry points (campaign.New(cfg).Run
// and explore.Run), checks every unit's deterministic output against the
// values recorded in expected.json, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload paper-triage --seed 1 --seconds 30 --trace 0
//
// METRICS.md in this directory defines every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-triage, scale-churn, exhaustive, or all")
	seed := fs.Int64("seed", 1, "benchmark seed: orders the units of every pass")
	seconds := fs.Float64("seconds", 30, "about how long one run measures: it makes round(seconds / nominal pass time) passes")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	worldSeeds := fs.String("world-seeds", "default", `world seeds: "default", "held-out", or a comma-separated list`)
	record := fs.Bool("record", false, "print every unit's deterministic output for the default and held-out seeds as expected.json content, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads()
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defs = []workloadDef{w}
	}
	if *record {
		return recordExpected(defs, stdout, stderr)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printHost(stdout)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range defs {
		seeds, err := w.resolveSeeds(*worldSeeds)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		var res result
		if *traced == 1 {
			res = w.reportTraced(seeds, *seed, *seconds, exp, stdout)
		} else {
			res = w.reportE2E(seeds, *seed, *seconds, exp, stdout)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(defs) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		fmt.Fprintln(stderr, "output-correctness check FAILED")
		return 1
	}
	return 0
}

func (w workloadDef) resolveSeeds(spec string) ([]int64, error) {
	switch spec {
	case "default":
		return w.seeds, nil
	case "held-out":
		return w.heldOut, nil
	}
	var out []int64
	for _, f := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-world-seeds: %q is not a seed", f)
		}
		out = append(out, s)
	}
	return out, nil
}

// reportE2E makes one untraced run and prints every end-to-end metric with
// its unit and sample count. The JSON metrics are the gated subset listed
// in BENCHMARK.json: the ones every workload defines.
func (w workloadDef) reportE2E(seeds []int64, seed int64, seconds float64, exp expectedOutputs, stdout io.Writer) result {
	r := w.measureE2E(w.cells(seeds), seed, seconds, exp)
	fmt.Fprintf(stdout, "workload %s (%s): world seeds %v, engine width %d, %d passes, untraced\n", w.name, w.why, seeds, engineWidth, r.passes)
	for _, k := range r.order {
		m := r.metrics[k]
		val := "not applicable"
		if !math.IsNaN(m.Value) {
			val = strconv.FormatFloat(m.Value, 'g', 6, 64)
		}
		line := fmt.Sprintf("  %-18s %14s %-6s", k, val, m.Unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "  per pass: wall s %s\n            setup s %s\n            exec/s %s\n", fmtList(r.passWalls), fmtList(r.passSetups), fmtList(r.passRates))
	fmt.Fprintf(stdout, "  snapshot fallbacks: %d\n", r.fallbacks)
	printList(stdout, "execution failures", r.failures)
	printList(stdout, "output-correctness mismatches", r.diffs)
	res := result{Correct: len(r.diffs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, k := range gatedE2E {
		res.Metrics[k] = r.metrics[k]
	}
	return res
}

// gatedE2E are the end-to-end metrics BENCHMARK.json bounds: defined on
// every workload, never zero, and steady enough to bound. Printed only:
// exec_p50_ms and exec_tail_ms (no per-schedule boundary on exhaustive),
// peak_rss_mb (it follows the GC pacer's heap goal and varies by about
// ±20% between runs), and failed_frac (zero when healthy; the result's
// failed and attempted fields carry it).
var gatedE2E = []string{"setup_s", "wall_s", "exec_per_s", "time_to_detect_s", "detect_execs", "bugs_detected", "alloc_kb_per_exec"}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func printList(w io.Writer, title string, items []string) {
	if len(items) == 0 {
		fmt.Fprintf(w, "  %s: none\n", title)
		return
	}
	fmt.Fprintf(w, "  %s: %d\n", title, len(items))
	for _, it := range items {
		fmt.Fprintln(w, "    "+it)
	}
}

// printHost stamps the report with the host it ran on.
func printHost(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recordExpected runs one pass over the default and held-out seeds of each
// workload and prints the outputs in expected.json's format.
func recordExpected(defs []workloadDef, stdout, stderr io.Writer) int {
	exp := expectedOutputs{}
	for _, w := range defs {
		exp[w.name] = map[string]output{}
		seen := map[int64]bool{}
		var seeds []int64
		for _, s := range append(append([]int64(nil), w.seeds...), w.heldOut...) {
			if !seen[s] {
				seen[s] = true
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, u := range w.runPass(w.cells(seeds), nil).units {
			if u.failed > 0 || len(u.failures) > 0 {
				fmt.Fprintf(stderr, "%s %s: refusing to record a unit with failed executions: %v\n", w.name, u.key, u.failures)
				return 1
			}
			exp[w.name][u.key] = u.out
			fmt.Fprintf(stderr, "recorded %s %s\n", w.name, u.key)
		}
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, errors.Join(errors.New("encode expected outputs"), err))
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
