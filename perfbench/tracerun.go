package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"
)

// outDir receives the traced run's spans and CPU profile (inside the
// checkout, next to the build output).
const outDir = ".bench_build"

// layerReport collects per-layer metrics in report order; a metric whose
// layer does not run on the workload reads 0 and says so.
type layerReport struct {
	names   []string
	metrics map[string]metric
}

func (r *layerReport) set(name string, v float64, unit string, ran bool, note string) {
	if !ran {
		v, note = 0, "layer not run on this workload"
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit, note: note}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// reportTraced makes the traced run. Untraced and traced passes
// alternate (the difference of their medians is the tracing overhead);
// the traced ones give (a) spans, the engine's counters and a CPU profile.
// Then (b) every layer probe is called once per (target, seed), and (c)
// the profiles are aggregated by layer.
func (w workloadDef) reportTraced(seeds []int64, seed int64, seconds float64, exp expectedOutputs, stdout io.Writer) result {
	cells := order(w.cells(seeds), seed, 0)
	log := newSpanLog()
	var bareWalls, tracedWalls []float64
	var tracedPasses []passResult
	var prof cpuProfile
	var profErr error
	var gcCPU, totalCPU float64
	var mallocs uint64
	var diffs, failures []string
	attempted, failed := 0, 0
	for i := 0; i < max(2, w.passes(seconds)); i++ {
		var p passResult
		if i%2 == 0 {
			p = w.runPass(cells, nil)
			bareWalls = append(bareWalls, p.wall.Seconds())
		} else {
			var ms0, ms1 runtime.MemStats
			var buf bytes.Buffer
			runtime.ReadMemStats(&ms0)
			gc0, cpu0 := cpuSeconds()
			err := pprof.StartCPUProfile(&buf)
			p = w.runPass(cells, log)
			if err == nil {
				pprof.StopCPUProfile()
				var pp cpuProfile
				if pp, err = parseCPUProfile(buf.Bytes()); err == nil {
					prof.ns = append(prof.ns, pp.ns...)
					prof.frames = append(prof.frames, pp.frames...)
				}
			}
			if err != nil {
				profErr = err
			}
			gc1, cpu1 := cpuSeconds()
			runtime.ReadMemStats(&ms1)
			gcCPU += gc1 - gc0
			totalCPU += cpu1 - cpu0
			mallocs += ms1.Mallocs - ms0.Mallocs
			tracedPasses = append(tracedPasses, p)
			tracedWalls = append(tracedWalls, p.wall.Seconds())
		}
		for _, u := range p.units {
			attempted += u.execs
			failed += u.failed
			failures = append(failures, u.failures...)
			diffs = append(diffs, checkUnit(exp, w.name, u.key, u.out)...)
		}
	}
	traced := tracedPasses[0]
	np := float64(len(tracedPasses))

	var probes []probeResult
	for i, c := range cells {
		p := w.probe(c, traced.units[i])
		if p.refViolations > 0 {
			failures = append(failures, fmt.Sprintf("%s: unperturbed reference run reports %d oracle violations", c.key(), p.refViolations))
		}
		probes = append(probes, p)
	}
	sum := func(f func(p probeResult) float64) (s float64) {
		for _, p := range probes {
			s += f(p)
		}
		return s
	}

	r := layerReport{metrics: map[string]metric{}}
	L := func(layer string) bool { return !w.notRun[layer] }

	// Part (a): spans and the engine's own counters from the traced pass.
	var builds int
	var buildDur time.Duration
	var execs, minimize, fallbacks int
	var expSched, expCollapsed, expSpace float64
	var expStates, expForks, expReplays int
	for _, u := range traced.units {
		builds += u.builds
		buildDur += u.buildDur
		fallbacks += u.fallbacks
		if u.camp != nil {
			minimize += u.camp.Stats.MinimizeExecutions
		}
		if e := u.exp; e != nil {
			expSched += float64(e.Stats.SchedulesExecuted)
			expCollapsed += float64(e.Stats.SchedulesCollapsed)
			expSpace += float64(e.Stats.ScheduleSpace)
			expStates += e.Stats.StatesVisited
			expForks += e.Forks
			expReplays += e.Replays
			if e.Witness != nil {
				minimize += e.Witness.MinimizeExecs
			}
		}
	}
	for _, p := range tracedPasses {
		for _, u := range p.units {
			execs += u.execs
		}
	}
	r.set("infra.build_ms", ratio(float64(buildDur.Nanoseconds())/1e6, float64(builds)), "ms", L("infra"), "mean Target.Build call, traced pass")
	r.set("infra.builds", float64(builds), "count", L("infra"), "Target.Build calls, traced pass")

	// Part (b): layer probes, one per (target, seed), summed or averaged.
	n := float64(len(probes))
	r.set("sim.steps", sum(func(p probeResult) float64 { return float64(p.steps) }), "count", L("sim"), "Kernel.Steps after each reference run, summed")
	r.set("sim.ns_per_step", ratio(sum(func(p probeResult) float64 { return float64(p.bareNS) }), sum(func(p probeResult) float64 { return float64(p.stepsRun) })), "ns", L("sim"), "bare Workload+RunFor time / steps it took")
	r.set("sim.net_sent", sum(func(p probeResult) float64 { return float64(p.sent) }), "count", L("sim"), "Network.Stats.Sent, reference runs")
	r.set("sim.net_dropped", sum(func(p probeResult) float64 { return float64(p.dropped) }), "count", L("sim"), "Network.Stats.Dropped, reference runs")
	r.set("store.revisions", sum(func(p probeResult) float64 { return float64(p.revisions) }), "count", L("store"), "Store.Revision after each reference run, summed")
	sends := sum(func(p probeResult) float64 { return float64(p.relaySends) })
	r.set("apiserver.relay_sends", sends, "count", L("apiserver"), "ServeStats.RelaySends, all apiservers, reference runs")
	r.set("apiserver.sub_visits_per_send", ratio(sum(func(p probeResult) float64 { return float64(p.subVisits) }), sends), "ratio", L("apiserver"), "RelaySubVisits / RelaySends")
	r.set("apiserver.list_keys_scanned", sum(func(p probeResult) float64 { return float64(p.listKeys) }), "count", L("apiserver"), "ServeStats.ListKeysScanned, reference runs")
	misses := sum(func(p probeResult) float64 { return float64(p.decodeMisses) })
	hits := sum(func(p probeResult) float64 { return float64(p.decodeHits) })
	r.set("apiserver.decode_misses", misses, "count", L("apiserver"), "ServeStats.DecodeMisses, reference runs")
	r.set("apiserver.decode_hit_ratio", ratio(hits, hits+misses), "ratio", L("apiserver"), "DecodeHits / (DecodeHits + DecodeMisses)")

	// Part (c): CPU time by layer, from the traced passes' profiles: cpu.*
	// by the leaf frame (self time), cpuin.* by the innermost frame inside
	// this repository (runtime and library work charged to its caller).
	cpuNote := fmt.Sprintf("share of %d CPU samples", len(prof.ns))
	if profErr != nil {
		cpuNote = "CPU profile incomplete: " + profErr.Error()
	}
	leaf, inner := prof.shares(leafLayer), prof.shares(callerLayer)
	for _, l := range cpuLayers {
		r.set("cpu."+l, leaf[l], "ratio", true, cpuNote+", leaf frame")
	}
	for _, l := range cpuLayers {
		if _, repo := repoLayerNames[l]; repo {
			r.set("cpuin."+l, inner[l], "ratio", true, cpuNote+", innermost repository frame")
		}
	}

	r.set("trace.instrument_ratio", ratio(sum(func(p probeResult) float64 { return float64(p.instrNS) }), sum(func(p probeResult) float64 { return float64(p.bareNS) })), "ratio", L("trace"), "recorded / bare Workload+RunFor, same world")
	r.set("trace.statehash_us", sum(func(p probeResult) float64 { return float64(p.statehashNS) })/1e3/n, "us", L("trace"), "mean StateHash of a reference trace")

	planned := probes[0].planned
	r.set("core.plans", sum(func(p probeResult) float64 { return float64(p.plans) }), "count", L("core") && planned, "Planner.Plans output, summed")
	r.set("core.plan_ms", sum(func(p probeResult) float64 { return float64(p.planNS) })/1e6/n, "ms", L("core") && planned, "mean Planner.Plans call")
	mined, scheduled := probes[0].mined, probes[0].schedule
	r.set("learn.mine_ms", sum(func(p probeResult) float64 { return float64(p.mineNS) })/1e6/n, "ms", L("learn") && mined, "mean learn.Mine call")
	r.set("learn.schedule_ms", sum(func(p probeResult) float64 { return float64(p.schedNS) })/1e6/n, "ms", L("learn") && scheduled, "mean learn.BuildSchedule call")
	r.set("learn.kept_frac", ratio(sum(func(p probeResult) float64 { return float64(p.kept) }), sum(func(p probeResult) float64 { return float64(p.plans) })), "ratio", L("learn") && scheduled, "kept plans / planned plans")

	r.set("campaign.tree_build_ms", sum(func(p probeResult) float64 { return float64(p.treeNS) })/1e6/n, "ms", L("campaign"), "mean campaign.NewForker call")
	forks := sum(func(p probeResult) float64 { return float64(p.forks) })
	replays := sum(func(p probeResult) float64 { return float64(p.replays) })
	r.set("campaign.fork_frac", ratio(forks, forks+replays), "ratio", L("campaign"), "Forker.Forks / (Forks + Replays), probe plans")
	r.set("campaign.fork_ms", ratio(sum(func(p probeResult) float64 { return float64(p.forkNS) })/1e6, sum(func(p probeResult) float64 { return float64(p.forkRuns) })), "ms", L("campaign"), "mean forked Forker.Run")
	r.set("campaign.replay_ms", ratio(sum(func(p probeResult) float64 { return float64(p.replayNS) })/1e6, sum(func(p probeResult) float64 { return float64(p.replayRuns) })), "ms", L("campaign"), "mean core.RunPlanSeed of the same plans")
	r.set("campaign.fallbacks", float64(fallbacks), "count", L("campaign"), "Stats.SnapshotFallbacks total, traced pass")

	explained := 0.0
	for _, p := range probes {
		if p.explained {
			explained++
		}
	}
	r.set("explain.minimize_execs", float64(minimize), "count", L("explain"), "minimization executions, traced pass")
	r.set("explain.bucket_ms", ratio(sum(func(p probeResult) float64 { return float64(p.explainNS) })/1e6, explained), "ms", L("explain") && explained > 0, "mean explain.FromTraces of a detected bucket's example plan")

	r.set("explore.schedules_executed", expSched, "count", L("explore"), "explore.Stats, traced pass")
	r.set("explore.collapsed_frac", ratio(expCollapsed, expSpace), "ratio", L("explore"), "SchedulesCollapsed / ScheduleSpace")
	r.set("explore.states_visited", float64(expStates), "count", L("explore"), "explore.Stats.StatesVisited")
	r.set("explore.fork_frac", ratio(float64(expForks), float64(expForks+expReplays)), "ratio", L("explore"), "Result.Forks / (Forks + Replays)")

	r.set("runtime.gc_cpu_frac", ratio(gcCPU, totalCPU), "ratio", true, "GC CPU / total CPU, traced passes (runtime/metrics)")
	r.set("runtime.mallocs_per_exec", ratio(float64(mallocs), float64(execs)), "count", true, "heap objects allocated per execution, traced passes")

	// Span self time per boundary, and the tracing overhead.
	self := selfByName(log.spans)
	for _, name := range spanNames {
		r.set("span."+name+".self_ms", float64(self[name].Nanoseconds())/1e6/np, "ms", true, "summed self time per traced pass")
	}
	tw, bw := median(tracedWalls), median(bareWalls)
	r.set("trace.overhead_s", tw-bw, "s", true,
		fmt.Sprintf("median traced pass %.3fs (%d) - median untraced pass %.3fs (%d), alternating; spans + CPU profile", tw, len(tracedWalls), bw, len(bareWalls)))

	if err := writeTrace(w.name, log); err != nil {
		failures = append(failures, "writing trace output: "+err.Error())
	}

	fmt.Fprintf(stdout, "workload %s: world seeds %v, engine width %d, traced run\n", w.name, seeds, engineWidth)
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(stdout, "  %-32s %14s %-6s (%s)\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.note)
	}
	printList(stdout, "execution failures", failures)
	printList(stdout, "output-correctness mismatches", diffs)
	return result{Correct: len(diffs) == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}
}

// spanNames are the span kinds the observer records.
var spanNames = []string{"campaign", "explore", "setup", "plans", "build", "workload"}

// writeTrace writes the spans under outDir.
func writeTrace(workload string, log *spanLog) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(log.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "perfbench-"+workload+"-spans.json"), b, 0o644)
}
