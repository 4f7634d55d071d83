package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/workload"
)

// engineWidth is the campaign engine's worker count in every workload. It
// is fixed here, not taken from GOMAXPROCS: guided scheduling is
// batch-synchronous per width, so executions-to-detection depend on it.
const engineWidth = 2

// workloadDef is one named set of inputs. Every workload is a closed loop:
// its units (campaigns or explorations) run one after another, and inside
// a campaign each of the engineWidth workers starts its next execution
// only when its previous one has finished.
type workloadDef struct {
	name string
	why  string
	// seeds are the recorded world seeds; heldOut is a second recorded set
	// kept aside for re-checking a claim on seeds not used while the
	// change was written.
	seeds, heldOut []int64
	targets        []core.Target
	// explore selects explore.Run units; otherwise units are campaigns
	// run with cfg.
	explore bool
	cfg     campaign.Config
	bounds  explore.Bounds
	// passSeconds is a pass's nominal duration on the reference host. A
	// run makes round(seconds / passSeconds) passes, so its length is set
	// by the work it does and is the same for any two commits compared.
	passSeconds float64
	// notRun names the layers whose public functions the workload never
	// calls; their per-layer metrics read 0.
	notRun map[string]bool
}

// workloads returns the benchmark's workloads in report order.
func workloads() []workloadDef {
	return []workloadDef{
		{
			name: "paper-triage",
			why:  "five small paper targets with every campaign feature on: fixed per-execution costs (world build, decode, tracing, forking, learning, explain) dominate",
			// Mirrors the CI matrix smoke: all five targets, partial-history
			// planner, a fixed plan cap, guided + learned + forked + explained.
			seeds:   []int64{1, 2},
			heldOut: []int64{3, 4},
			targets: workload.AllTargets(),
			cfg: campaign.Config{
				Workers: engineWidth, MaxExecutions: 60,
				Guided: true, Prune: true, Ranked: true, Snapshot: true, Explain: true, KeepGoing: true,
			},
			passSeconds: 1.6,
			notRun:      map[string]bool{"explore": true},
		},
		{
			name: "scale-churn",
			why:  "100-node topology worlds, uninstrumented: informer list/clone, scheduler and planner scans dominate; tracing, learning and explain are bypassed",
			// Mirrors the CI scale smoke, without guidance or explanation.
			seeds:   []int64{1},
			heldOut: []int64{2},
			targets: workload.ScaleTargets(),
			cfg: campaign.Config{
				Workers: engineWidth, MaxExecutions: 4,
				Snapshot: true, KeepGoing: true,
			},
			passSeconds: 5,
			notRun:      map[string]bool{"learn": true, "explain": true, "explore": true},
		},
		{
			name: "exhaustive",
			why:  "serial bounded exploration with POR: thousands of short forked schedules and a StateHash per run; bypasses the planner, engine pool and guidance",
			// Mirrors the CI exhaustive smoke: phtest -explore defaults.
			seeds:       []int64{1},
			heldOut:     []int64{2},
			targets:     []core.Target{mustTarget("k8s-59848"), mustTarget("cass-op-402")},
			explore:     true,
			bounds:      explore.Bounds{Drops: 1, Delays: 1, Delay: explore.DefaultDelay},
			passSeconds: 11.5,
			notRun:      map[string]bool{"core": true},
		},
	}
}

func mustTarget(name string) core.Target {
	for _, t := range workload.AllTargets() {
		if t.Name == name {
			return t
		}
	}
	panic("unknown target " + name)
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have: %v)", name, names)
}

// cell is one unit of a pass: a target under one world seed.
type cell struct {
	target core.Target
	seed   int64
}

func (c cell) key() string { return fmt.Sprintf("%s/%d", c.target.Name, c.seed) }

// cells lists the workload's units for the given world seeds in canonical
// (target, seed) order.
func (w workloadDef) cells(seeds []int64) []cell {
	var out []cell
	for _, t := range w.targets {
		for _, s := range seeds {
			out = append(out, cell{target: t, seed: s})
		}
	}
	return out
}

// passes is how many passes a run of about the given seconds makes.
func (w workloadDef) passes(seconds float64) int {
	if n := int(math.Round(seconds / w.passSeconds)); n > 1 {
		return n
	}
	return 1
}

// detectCap is what a unit that never detects contributes to detect_execs:
// the plan cap plus the reference run, or the explorer's schedule cap.
func (w workloadDef) detectCap() int {
	if w.explore {
		if w.bounds.MaxSchedules > 0 {
			return w.bounds.MaxSchedules
		}
		return explore.DefaultMaxSchedules
	}
	return w.cfg.MaxExecutions + 1
}

// output is a unit's deterministic result, compared against the recorded
// values on every run.
type output struct {
	Detected   bool     `json:"detected"`
	Executions int      `json:"executions"`
	Buckets    []string `json:"detected_buckets,omitempty"`
	// Exhaustive units only.
	Outcome   string         `json:"outcome,omitempty"`
	MinimalID string         `json:"minimal_id,omitempty"`
	Stats     *explore.Stats `json:"explore_stats,omitempty"`
}

// unitResult is what one unit yields: timings, counts and its output.
type unitResult struct {
	key        string
	wall       time.Duration
	setup      time.Duration
	detectAt   time.Duration // < 0: no detection reported
	execs      int           // plan/reference, minimize and schedule executions
	failed     int           // failed + hung executions
	failures   []string
	fallbacks  int
	wallUS     []float64
	builds     int
	buildDur   time.Duration
	out        output
	camp       *campaign.Result
	exp        *explore.Result
	detectExec int
}

// runUnit executes one unit through the public entry points, observed
// from outside. log may be nil (untraced).
func (w workloadDef) runUnit(c cell, log *spanLog) unitResult {
	r := unitResult{key: c.key()}
	if w.explore {
		o := newObserver(log, 1, false)
		res := explore.Run(explore.Config{
			Target: o.target(c.target), Seed: c.seed, Bounds: w.bounds, POR: true, Snapshot: true,
		})
		end := time.Now()
		r.setup = o.finish("explore", end)
		r.wall = end.Sub(o.start)
		r.builds, r.buildDur = o.builds, o.buildDur
		if log != nil {
			r.exp = res
		}
		r.detectAt = -1
		r.execs = int(res.Stats.SchedulesExecuted)
		st := res.Stats
		r.out = output{Outcome: res.Outcome, Executions: int(st.SchedulesExecuted), Stats: &st}
		if res.Outcome == explore.OutcomeViolation {
			r.detectAt = r.wall
			r.out.Detected = true
			if res.Witness != nil {
				r.out.MinimalID = res.Witness.MinimalID
				r.execs += res.Witness.MinimizeExecs
			}
		}
		if res.Outcome == explore.OutcomeBudget {
			r.failures = append(r.failures, r.key+": exploration exhausted its schedule budget")
		}
	} else {
		ladder := 0
		if w.cfg.Snapshot {
			ladder = 1
		}
		o := newObserver(log, ladder, true)
		cfg := w.cfg
		cfg.Seeds = []int64{c.seed}
		cfg.OnOutcome = o.outcome
		res := campaign.New(cfg).Run(o.target(c.target), observedStrategy{core.NewPlanner(), o})
		end := time.Now()
		r.setup = o.finish("campaign", end)
		r.wall = end.Sub(o.start)
		r.builds, r.buildDur = o.builds, o.buildDur
		r.detectAt = o.detectAt
		r.wallUS = o.wallUS
		if log != nil {
			r.camp = &res
		}
		r.execs = res.Stats.RawExecutions + res.Stats.MinimizeExecutions
		r.failed = res.Stats.FailedExecutions + res.Stats.HungExecutions
		for _, f := range res.Failures {
			r.failures = append(r.failures, fmt.Sprintf("%s: %s plan %s (index %d)", r.key, f.Kind, f.Plan, f.Index))
		}
		if fb := res.Stats.SnapshotFallbacks; fb != nil {
			r.fallbacks = fb.Unsnapshotable + fb.StrictPast + fb.RestoreError + fb.Watchdog
		}
		sr := res.Seeds[0].Campaign
		r.out = output{Detected: sr.Detected, Executions: sr.Executions}
		for _, b := range res.Buckets {
			if b.Detected {
				r.out.Buckets = append(r.out.Buckets, b.Signature)
			}
		}
		sort.Strings(r.out.Buckets)
	}
	r.detectExec = w.detectCap()
	if r.out.Detected {
		r.detectExec = r.out.Executions
	}
	return r
}
