package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runBoth executes the same campaign with snapshotting off and on and
// returns both results. Everything downstream compares canonicalized
// forms: fork vs. full replay is an implementation detail that must never
// surface in any artifact.
func runBoth(t *testing.T, target core.Target, s func() core.Strategy, cfg Config) (off, on Result) {
	t.Helper()
	cfgOff, cfgOn := cfg, cfg
	cfgOff.Snapshot = false
	cfgOn.Snapshot = true
	off = New(cfgOff).Run(target, s())
	on = New(cfgOn).Run(target, s())
	return off, on
}

// assertEquivalent asserts byte-identical canonicalized artifacts and
// NDJSON streams between a snapshot-off and a snapshot-on campaign.
func assertEquivalent(t *testing.T, off, on Result, cfgOff, cfgOn Config) {
	t.Helper()
	if !reflect.DeepEqual(Canonicalize(off), Canonicalize(on)) {
		t.Fatalf("snapshot-on result diverged from snapshot-off\n off: %+v\n  on: %+v",
			Canonicalize(off), Canonicalize(on))
	}
	artOff, err := json.MarshalIndent(CanonicalizeArtifact(BuildArtifact(off, cfgOff)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	artOn, err := json.MarshalIndent(CanonicalizeArtifact(BuildArtifact(on, cfgOn)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artOff, artOn) {
		t.Fatalf("canonicalized campaign.json bytes differ:\n--- off ---\n%s\n--- on ---\n%s", artOff, artOn)
	}
	var ndOff, ndOn bytes.Buffer
	if err := WriteNDJSON(&ndOff, off, cfgOff); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&ndOn, on, cfgOn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ndOff.Bytes(), ndOn.Bytes()) {
		t.Fatalf("telemetry NDJSON bytes differ:\n--- off ---\n%s\n--- on ---\n%s", ndOff.Bytes(), ndOn.Bytes())
	}
}

// TestSnapshotMatchesFullReplay is the correctness cross-check the prefix
// checkpoint layer exists to honor: for every seeded-bug target, a
// campaign with Config.Snapshot produces byte-identical canonicalized
// campaign.json artifacts and NDJSON telemetry streams to the same
// campaign replaying every plan from t=0 — at -parallel 1, 2, and 4.
// All five targets — the k8s pair and the three cassandra-operator ones —
// are snapshotable and exercise the fork path for real.
func TestSnapshotMatchesFullReplay(t *testing.T) {
	targets := []core.Target{
		workload.Target59848(),
		workload.Target56261(),
		workload.TargetCass398(),
		workload.TargetCass400(),
		workload.TargetCass402(),
	}
	for _, target := range targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			if testing.Short() && (target.Name == "cass-op-400" || target.Name == "cass-op-402") {
				t.Skip("short mode: cassandra fork path covered by cass-op-398")
			}
			for _, workers := range []int{1, 2, 4} {
				cfg := Config{Workers: workers, MaxExecutions: 25, Collect: true, KeepGoing: true}
				off, on := runBoth(t, target, func() core.Strategy { return core.NewPlanner() }, cfg)
				cfgOff, cfgOn := cfg, cfg
				cfgOff.Snapshot, cfgOn.Snapshot = false, true
				assertEquivalent(t, off, on, cfgOff, cfgOn)
			}
		})
	}
}

// campaignTree builds the checkpoint tree a snapshotting campaign forks
// its executions from: a NopPlan base with rungs at the effect quantiles of
// the planner's plans.
func campaignTree(t *testing.T, target core.Target, seed int64) (*planTree, []core.Plan, *trace.Trace) {
	t.Helper()
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	pt := buildPlanTree(target, core.NopPlan{}, seed, ref, effectQuantiles(plans, ref), 0)
	if pt == nil || len(pt.rungs) == 0 {
		t.Fatalf("%s: campaign tree has no rungs on a snapshotable target", target.Name)
	}
	return pt, plans, ref
}

// TestSnapshotActuallyForks guards against the cross-check passing
// vacuously: on a snapshotable k8s target the campaign tree must build and
// serve every one of the first 20 plans from a checkpoint, and forked
// executions must agree with their full replays plan by plan.
func TestSnapshotActuallyForks(t *testing.T) {
	target := workload.Target59848()
	seed := int64(1)
	pt, plans, _ := campaignTree(t, target, seed)
	forked := 0
	for i, p := range plans[:20] {
		exec, tr, ok, cause := pt.run(target, p, true)
		if !ok {
			t.Errorf("plan %d (%s): no fork (cause %d)", i, p.Describe(), cause)
			continue
		}
		forked++
		sig := execSignature(exec, tr)
		want, wantTr := runGuarded(target, p, seed, true, 0)
		wantSig := execSignature(want, wantTr)
		if !reflect.DeepEqual(exec.Violations, want.Violations) ||
			exec.Detected != want.Detected || sig != wantSig {
			t.Fatalf("plan %d (%s): fork diverged from full replay\nfork: det=%v sig=%x viol=%+v\nfull: det=%v sig=%x viol=%+v",
				i, p.Describe(), exec.Detected, sig, exec.Violations,
				want.Detected, wantSig, want.Violations)
		}
	}
	t.Logf("forked %d/20 plans from %d rungs", forked, len(pt.rungs))
}

// TestCampaignTreeEligibility pins that routing campaign executions
// through the checkpoint tree does not shrink fork eligibility: at world
// seed 1 every planner plan has an eligible rung on every paper target and
// on the 100-node scale targets.
func TestCampaignTreeEligibility(t *testing.T) {
	targets := workload.AllTargets()
	if !testing.Short() {
		targets = append(targets, workload.ScaleTargets()...)
	}
	for _, target := range targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			pt, plans, _ := campaignTree(t, target, 1)
			eligible := 0
			for _, p := range plans {
				if pt.forkRung(flatten(p, nil)) != nil {
					eligible++
				}
			}
			if eligible != len(plans) {
				t.Fatalf("%d/%d plans have an eligible rung, want all", eligible, len(plans))
			}
		})
	}
}

// TestDropRuleIsPerVictim: the k8s-56261 reference run loses watch pushes,
// all to kubelet-n1. Occurrence-counted plans aimed elsewhere must still
// fork; one aimed at kubelet-n1 must be refused, because its match stream
// is incomplete.
func TestDropRuleIsPerVictim(t *testing.T) {
	target := workload.Target56261()
	pt, plans, ref := campaignTree(t, target, 1)
	const lossy = sim.NodeID("kubelet-n1")
	if ref.DroppedPushesTo(lossy) == 0 {
		t.Fatalf("reference run dropped no pushes to %s: the test is vacuous", lossy)
	}
	occ := 0
	for _, p := range plans {
		for _, sub := range flatten(p, nil) {
			v, counted := occurrenceVictim(sub)
			if !counted {
				continue
			}
			occ++
			if ref.DroppedPushesTo(v) > 0 {
				t.Fatalf("planner plan %s targets lossy victim %s", sub.ID(), v)
			}
			if pt.forkRung([]core.Plan{sub}) == nil {
				t.Errorf("occurrence-counted plan %s refused although %s lost no pushes", sub.ID(), v)
			}
		}
	}
	if occ == 0 {
		t.Fatal("planner produced no occurrence-counted plans: the test is vacuous")
	}
	refused := core.GapPlan{Victim: lossy, Kind: cluster.KindPod, Name: "job-1", Occurrence: 1}
	if _, ok := pt.divergence([]core.Plan{refused}); ok {
		t.Fatalf("occurrence-counted plan aimed at %s was not refused", lossy)
	}
	t.Logf("%d occurrence-counted sub-plans fork; a gap at %s is refused", occ, lossy)
}

// TestForkStrictPastFallsBack: a novel perturbation whose timers reach
// back into the checkpointed prefix cannot fork exactly. A time-travel plan
// crashing its component before its freeze instant has an earliest effect
// (the freeze) after the deepest rung but a crash timer before it; the fork
// must refuse with a counted strict-past fallback instead of silently
// burning the crash.
func TestForkStrictPastFallsBack(t *testing.T) {
	target := workload.Target59848()
	pt, _, _ := campaignTree(t, target, 1)
	last := pt.rungs[len(pt.rungs)-1].at
	p := core.TimeTravelPlan{
		Component: "scheduler",
		StaleAPI:  "api-1",
		FreezeAt:  last.Add(sim.Millisecond),
		CrashAt:   pt.buildEnd.Add(sim.Millisecond),
	}
	if rg := pt.forkRung(flatten(p, nil)); rg == nil || rg.at <= p.CrashAt {
		t.Fatal("test plan does not fork past its crash instant: the test is vacuous")
	}
	if _, _, ok, cause := pt.run(target, p, false); ok || cause != fallbackStrictPast {
		t.Fatalf("run = ok %v cause %d, want a strict-past fallback", ok, cause)
	}
}

// TestForkWatchdogHonoursBudget: the tree's fork watchdog runs on the
// budget the tree was built with, not a hard-coded default — a tree built
// with a one-step budget must trip it.
func TestForkWatchdogHonoursBudget(t *testing.T) {
	target := workload.Target59848()
	ref, _ := core.ReferenceSeed(target, 1)
	plans := core.NewPlanner().Plans(target, ref)
	pt := buildPlanTree(target, core.NopPlan{}, 1, ref, effectQuantiles(plans, ref), 1)
	if pt == nil {
		t.Fatal("buildPlanTree returned nil")
	}
	if _, _, ok, cause := pt.run(target, plans[0], false); ok || cause != fallbackWatchdog {
		t.Fatalf("run = ok %v cause %d, want a watchdog fallback", ok, cause)
	}
}

// TestSnapshotGuidedAndLearning covers the remaining engine modes on one
// snapshotable target: coverage-guided scheduling and the learning phase
// (prune + ranked) must both be byte-equivalent under forking.
func TestSnapshotGuidedAndLearning(t *testing.T) {
	target := workload.Target56261()
	cfgs := []Config{
		{Workers: 2, Guided: true, MaxExecutions: 30, Collect: true},
		{Workers: 2, MaxExecutions: 30, Collect: true, Prune: true, Ranked: true, KeepGoing: true},
		{Workers: 2, Seeds: []int64{1, 2}, MaxExecutions: 15, Collect: true},
	}
	for _, cfg := range cfgs {
		off, on := runBoth(t, target, func() core.Strategy { return core.NewPlanner() }, cfg)
		cfgOff, cfgOn := cfg, cfg
		cfgOff.Snapshot, cfgOn.Snapshot = false, true
		assertEquivalent(t, off, on, cfgOff, cfgOn)
	}
}
