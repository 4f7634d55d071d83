package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/infra"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// probeResult holds one (target, seed)'s layer probes (part b of the
// traced run): each layer's public function called once from outside and
// timed, and the counters the layers export read after the reference run.
type probeResult struct {
	buildNS, bareNS, instrNS, statehashNS int64
	steps, stepsRun, sent, dropped        uint64
	revisions                             int64
	relaySends, subVisits, listKeys       uint64
	decodeHits, decodeMisses              uint64
	refViolations                         int

	planned         bool
	plans           int
	planNS          int64
	mined, schedule bool
	mineNS, schedNS int64
	kept            int

	treeNS               int64
	forks, replays       int
	forkNS, replayNS     int64
	forkRuns, replayRuns int
	explained            bool
	explainNS            int64
}

// forkProbePlans is how many plans per (target, seed) the fork probe runs
// through campaign.Forker and, for comparison, core.RunPlanSeed.
const forkProbePlans = 4

// elapsed times one probe call, starting from a collected heap so probes
// do not pay for garbage the previous one left.
func elapsed(f func()) int64 {
	runtime.GC()
	st := time.Now()
	f()
	return time.Since(st).Nanoseconds()
}

// probe runs every layer probe for one cell. u is the cell's unit from the
// traced pass; it supplies the detected bucket the explain probe replays.
func (w workloadDef) probe(c cell, u unitResult) probeResult {
	t, seed := c.target, c.seed
	var p probeResult

	// infra + sim + store + apiserver + oracle: a bare reference run.
	var cl *infra.Cluster
	p.buildNS = elapsed(func() { cl = t.Build(seed) })
	k := cl.World.Kernel()
	afterBuild := k.Steps()
	p.bareNS = elapsed(func() {
		t.Workload(cl)
		cl.RunFor(t.Horizon)
	})
	p.steps = k.Steps()
	p.stepsRun = p.steps - afterBuild
	ns := cl.World.Network().Stats()
	p.sent, p.dropped = ns.Sent, ns.Dropped
	p.revisions = cl.Store.Store().Revision()
	for _, a := range cl.APIs {
		s := a.Stats()
		p.relaySends += s.RelaySends
		p.subVisits += s.RelaySubVisits
		p.listKeys += s.ListKeysScanned
		p.decodeHits += s.DecodeHits
		p.decodeMisses += s.DecodeMisses
	}
	p.refViolations = len(cl.Violations())

	// trace: the same run instrumented, then the state hash of its trace.
	ci := t.Build(seed)
	rec := trace.NewRecorder()
	rec.Attach(ci.World.Network(), ci.Store.Store())
	p.instrNS = elapsed(func() {
		t.Workload(ci)
		ci.RunFor(t.Horizon)
	})
	ref := rec.T
	p.statehashNS = elapsed(func() { _ = ref.StateHash() })

	// core: the planner.
	var plans []core.Plan
	if !w.explore {
		p.planned = true
		p.planNS = elapsed(func() { plans = core.NewPlanner().Plans(t, ref) })
		p.plans = len(plans)
	}

	// learn: mining (campaigns with learning, and the explorer's POR
	// model) and the pruning schedule (campaigns with learning).
	if w.explore || w.cfg.Prune || w.cfg.Ranked {
		var model *learn.Model
		p.mined = true
		p.mineNS = elapsed(func() { model = learn.Mine(ref, 0) })
		if !w.explore {
			var sched *learn.Schedule
			p.schedule = true
			p.schedNS = elapsed(func() {
				sched = learn.BuildSchedule(model, t, plans, learn.Options{Prune: w.cfg.Prune, Rank: w.cfg.Ranked})
			})
			p.kept = len(sched.Kept)
		}
	}

	// campaign: the checkpoint tree, forked runs versus full replays of the
	// same plans.
	probes := spread(plans, forkProbePlans)
	var cands []sim.Time
	for _, q := range probes {
		if at, ok := core.EarliestEffect(q, ref); ok {
			cands = append(cands, at)
		}
	}
	if w.explore {
		probes = []core.Plan{core.NopPlan{}}
		cands = deliveryQuantiles(ref, 11)
	}
	var f *campaign.Forker
	p.treeNS = elapsed(func() { f = campaign.NewForker(t, seed, ref, cands) })
	for _, q := range probes {
		before := f.Forks
		d := elapsed(func() { f.Run(q) })
		if f.Forks > before {
			p.forkNS += d
			p.forkRuns++
		}
		p.replayNS += elapsed(func() { core.RunPlanSeed(t, q, seed) })
		p.replayRuns++
	}
	p.forks, p.replays = f.Forks, f.Replays

	// explain: the causal explanation of the unit's first detected bucket.
	if u.camp != nil {
		for _, b := range u.camp.Buckets {
			if !b.Detected {
				continue
			}
			q := planByID(plans, b.ExamplePlanID)
			if q == nil {
				break
			}
			pert, viol := perturbedRun(t, q, seed)
			p.explained = true
			p.explainNS = elapsed(func() { explain.FromTraces(t, q, seed, ref, pert, viol) })
			break
		}
	}
	return p
}

// spread picks up to n plans evenly spaced over the list.
func spread(plans []core.Plan, n int) []core.Plan {
	if len(plans) <= n {
		return plans
	}
	out := make([]core.Plan, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, plans[i*(len(plans)-1)/(n-1)])
	}
	return out
}

// deliveryQuantiles samples up to n arrival times of the reference
// trace's component deliveries, the instants the explorer asks its
// checkpoint tree for.
func deliveryQuantiles(ref *trace.Trace, n int) []sim.Time {
	var ts []sim.Time
	for _, d := range ref.Deliveries {
		if d.To != "admin" {
			ts = append(ts, d.Time)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	if len(ts) <= n {
		return ts
	}
	out := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ts[i*(len(ts)-1)/(n-1)])
	}
	return out
}

func planByID(plans []core.Plan, id string) core.Plan {
	for _, q := range plans {
		if q.ID() == id {
			return q
		}
	}
	return nil
}

// perturbedRun executes one plan with a trace recorder attached.
func perturbedRun(t core.Target, q core.Plan, seed int64) (*trace.Trace, []oracle.Violation) {
	c := t.Build(seed)
	rec := trace.NewRecorder()
	rec.Attach(c.World.Network(), c.Store.Store())
	q.Apply(c)
	t.Workload(c)
	c.RunFor(t.Horizon)
	return rec.T, c.Violations()
}
