package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// passResult aggregates one pass: every unit of the workload, once.
type passResult struct {
	units []unitResult
	wall  time.Duration
}

func (p passResult) setup() (d time.Duration) {
	for _, u := range p.units {
		d += u.setup
	}
	return d
}

func (p passResult) timeToDetect() (d time.Duration) {
	for _, u := range p.units {
		if u.detectAt >= 0 {
			d += u.detectAt
		}
	}
	return d
}

func (p passResult) detectExecs() (n int) {
	for _, u := range p.units {
		n += u.detectExec
	}
	return n
}

func (p passResult) bugsDetected() (n int) {
	for _, u := range p.units {
		if u.out.Detected {
			n++
		}
	}
	return n
}

// order returns the pass's unit order: a permutation of the canonical
// cell list drawn from the benchmark seed and the pass index. Units are
// independent, so the order changes timing only, never outputs.
func order(cells []cell, seed int64, pass int) []cell {
	out := append([]cell(nil), cells...)
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runPass executes every cell once in the given order. Each unit starts
// from a collected heap, so the GC pacer's state at a unit's start does
// not depend on what earlier units left behind; the collection is not
// part of the unit's time, and the pass's wall time is the sum of its
// units' times.
func (w workloadDef) runPass(cells []cell, log *spanLog) passResult {
	var p passResult
	for _, c := range cells {
		runtime.GC()
		u := w.runUnit(c, log)
		p.wall += u.wall
		p.units = append(p.units, u)
	}
	return p
}

// metric is one reported value with its unit; n is its sample count
// (0 when the value is a single measurement or a count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// e2eReport is one untraced run's end-to-end result.
type e2eReport struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	failures  []string
	fallbacks int
	diffs     []string
	passes    int
	// passWalls / passSetups / passRates are each pass's wall and set-up
	// seconds and execution rate.
	passWalls, passSetups, passRates []float64
}

func (r *e2eReport) set(name string, m metric) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = m
}

// measureE2E makes w.passes(seconds) passes and derives the end-to-end
// metrics from them. Set-up is the median over passes. The other pass
// timings are reported for the fastest pass: slowdowns from other tenants
// of the host come in phases of tens of seconds and only ever add time, so
// the fastest pass tracks the program's own speed with less run-to-run
// spread than the median; the median is printed beside it.
func (w workloadDef) measureE2E(cells []cell, seed int64, seconds float64, exp expectedOutputs) e2eReport {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var passes []passResult
	for i := 0; i < w.passes(seconds); i++ {
		passes = append(passes, w.runPass(order(cells, seed, i), nil))
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	r := e2eReport{metrics: map[string]metric{}, passes: len(passes)}
	var ttds []float64
	var execs int
	var wallUS []float64
	for pi, p := range passes {
		r.passSetups = append(r.passSetups, p.setup().Seconds())
		r.passWalls = append(r.passWalls, p.wall.Seconds())
		ttds = append(ttds, p.timeToDetect().Seconds())
		passExecs := 0
		for _, u := range p.units {
			execs += u.execs
			passExecs += u.execs
			wallUS = append(wallUS, u.wallUS...)
			r.failed += u.failed
			r.fallbacks += u.fallbacks
			r.failures = append(r.failures, u.failures...)
			r.diffs = append(r.diffs, checkUnit(exp, w.name, u.key, u.out)...)
		}
		r.passRates = append(r.passRates, float64(passExecs)/(p.wall-p.setup()).Seconds())
		if pi > 0 && (p.detectExecs() != passes[0].detectExecs() || p.bugsDetected() != passes[0].bugsDetected()) {
			r.diffs = append(r.diffs, fmt.Sprintf("pass %d: deterministic counts differ from pass 0", pi))
		}
	}
	r.attempted = execs
	setups, walls, rates := r.passSetups, r.passWalls, r.passRates

	r.set("setup_s", metric{Value: median(setups), Unit: "s", n: len(setups), note: "median over passes of the summed per-unit set-up"})
	r.set("wall_s", metric{Value: lowest(walls), Unit: "s", n: len(walls),
		note: fmt.Sprintf("fastest pass; median %.4g", median(walls))})
	r.set("exec_per_s", metric{Value: highest(rates), Unit: "1/s", n: len(rates),
		note: fmt.Sprintf("fastest pass's executions / host seconds outside set-up; median %.4g; %d executions", median(rates), execs)})
	if len(wallUS) > 0 {
		r.set("exec_p50_ms", metric{Value: percentile(wallUS, 50) / 1000, Unit: "ms", n: len(wallUS)})
		if p, ok := tailPercentile(len(wallUS)); ok {
			r.set("exec_tail_ms", metric{Value: percentile(wallUS, p) / 1000, Unit: "ms", n: len(wallUS), note: fmt.Sprintf("p%g", p)})
		} else {
			r.set("exec_tail_ms", metric{Value: math.NaN(), Unit: "ms", n: len(wallUS), note: "not applicable: fewer than 10 samples beyond the median"})
		}
	} else {
		na := "not applicable: explore.Run exposes no per-schedule boundary"
		r.set("exec_p50_ms", metric{Value: math.NaN(), Unit: "ms", note: na})
		r.set("exec_tail_ms", metric{Value: math.NaN(), Unit: "ms", note: na})
	}
	r.set("time_to_detect_s", metric{Value: lowest(ttds), Unit: "s", n: len(ttds),
		note: fmt.Sprintf("fastest pass's summed start-to-first-detection times; median %.4g", median(ttds))})
	r.set("detect_execs", metric{Value: float64(passes[0].detectExecs()), Unit: "count", note: "per pass; deterministic"})
	r.set("bugs_detected", metric{Value: float64(passes[0].bugsDetected()), Unit: "count", note: fmt.Sprintf("per pass, of %d units; deterministic", len(cells))})
	r.set("alloc_kb_per_exec", metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(execs), Unit: "KiB", n: execs})
	r.set("peak_rss_mb", metric{Value: peakRSSMiB(), Unit: "MiB"})
	r.set("failed_frac", metric{Value: float64(r.failed) / float64(execs), Unit: "ratio", n: execs, note: fmt.Sprintf("%d failed+hung of %d attempted", r.failed, execs)})
	return r
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
