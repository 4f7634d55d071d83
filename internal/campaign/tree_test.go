package campaign

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCheckpointTreeEquivalence is the tree analogue of
// TestSnapshotMatchesFullReplay: with Explain on, the minimization probes
// and the instrumented re-execution run through the checkpoint tree
// (mid-plan rungs), and every bucket's minimal plan and causal explanation
// must be byte-identical to the full-replay pass — on all five targets, at
// -parallel 1, 2, and 4.
func TestCheckpointTreeEquivalence(t *testing.T) {
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
				t.Skip("short mode: cassandra tree path covered by cass-op-398")
			}
			for _, workers := range []int{1, 2, 4} {
				cfg := Config{Workers: workers, MaxExecutions: 25, Collect: true, KeepGoing: true, Explain: true}
				off, on := runBoth(t, target, func() core.Strategy { return core.NewPlanner() }, cfg)
				cfgOff, cfgOn := cfg, cfg
				cfgOff.Snapshot, cfgOn.Snapshot = false, true
				assertEquivalent(t, off, on, cfgOff, cfgOn)
			}
		})
	}
}

// TestCheckpointTreeActuallyForks guards the tree cross-check against
// passing vacuously: for a detected plan on a snapshotable target, the
// tree must build, hold at least one rung, and serve at least one
// minimization-shaped probe whose result agrees with a full replay.
func TestCheckpointTreeActuallyForks(t *testing.T) {
	target := workload.Target59848()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)

	var detected core.Plan
	for _, p := range plans {
		if core.RunPlanSeed(target, p, seed).Detected {
			detected = p
			break
		}
	}
	if detected == nil {
		t.Fatal("no plan detects on k8s-59848: tree test is vacuous")
	}
	pt := buildPlanTree(target, detected, seed, ref, effectQuantiles(flatten(detected, nil), ref), 0)
	if pt == nil {
		t.Fatal("buildPlanTree returned nil for a snapshotable target")
	}
	if len(pt.rungs) == 0 {
		t.Fatal("plan tree has no rungs")
	}
	// The base plan itself must be served from the tree's own base run.
	exec, _, ok, _ := pt.run(target, detected, false)
	if !ok {
		t.Fatal("tree did not serve the base plan")
	}
	want := core.RunPlanSeed(target, detected, seed)
	if exec.Detected != want.Detected || !reflect.DeepEqual(exec.Violations, want.Violations) {
		t.Fatalf("tree base execution diverged:\ntree: det=%v viol=%+v\nfull: det=%v viol=%+v",
			exec.Detected, exec.Violations, want.Detected, want.Violations)
	}
	// Probe the minimizer's candidate shapes against full replays.
	probes := []core.Plan{detected}
	if sp, isSeq := detected.(core.SequencePlan); isSeq && len(sp.Plans) > 1 {
		for i := range sp.Plans {
			cand := make([]core.Plan, 0, len(sp.Plans)-1)
			cand = append(cand, sp.Plans[:i]...)
			cand = append(cand, sp.Plans[i+1:]...)
			probes = append(probes, core.SequencePlan{Name: sp.Name + "-min", Plans: cand})
		}
	}
	forked := 0
	for _, q := range probes {
		exec, _, ok, cause := pt.run(target, q, false)
		if !ok {
			if cause != fallbackNone {
				t.Fatalf("probe %s: diagnosable fallback cause %d", q.Describe(), cause)
			}
			continue
		}
		forked++
		want := core.RunPlanSeed(target, q, seed)
		if exec.Detected != want.Detected || !reflect.DeepEqual(exec.Violations, want.Violations) {
			t.Fatalf("probe %s: tree fork diverged from full replay\ntree: det=%v viol=%+v\nfull: det=%v viol=%+v",
				q.Describe(), exec.Detected, exec.Violations, want.Detected, want.Violations)
		}
	}
	if forked == 0 {
		t.Fatal("no probe forked: the tree cross-check would be vacuous")
	}
	t.Logf("forked %d/%d probes from %d rungs", forked, len(probes), len(pt.rungs))
}

// TestSnapshotFallbacksZeroOnCassandra pins the fallback-visibility fix:
// the cassandra-operator targets are snapshotable now, so a snapshot-on
// campaign must report NO diagnosable fallbacks (the stats pointer stays
// nil, keeping artifacts byte-identical to snapshot-off).
func TestSnapshotFallbacksZeroOnCassandra(t *testing.T) {
	targets := []core.Target{workload.TargetCass398()}
	if !testing.Short() {
		targets = append(targets, workload.TargetCass400(), workload.TargetCass402())
	}
	for _, target := range targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			cfg := Config{Workers: 2, MaxExecutions: 25, Collect: true, KeepGoing: true, Snapshot: true}
			res := New(cfg).Run(target, core.NewPlanner())
			if res.Stats.SnapshotFallbacks != nil {
				t.Fatalf("snapshot fallbacks on a snapshotable target: %+v", *res.Stats.SnapshotFallbacks)
			}
		})
	}
}

// TestForkAtBuildBoundary is the InstallPending boundary regression: a
// plan whose first perturbation lands exactly at the first rung's instant —
// the build-boundary sequence band edge — must fork (not fall back) and
// agree byte-for-byte with its full replay. Events carrying seq ==
// buildSeq are the last pre-build allocations and must NOT shift; the
// first post-build allocation (the plan's own timer) must.
func TestForkAtBuildBoundary(t *testing.T) {
	target := workload.Target59848()
	seed := int64(1)
	pt, plans, _ := campaignTree(t, target, seed)
	var base core.StalenessPlan
	found := false
	for _, p := range plans {
		if sp, ok := p.(core.StalenessPlan); ok {
			base = sp
			found = true
			break
		}
	}
	if !found {
		t.Fatal("planner produced no staleness plan")
	}
	// Pin the perturbation to the first rung's capture instant: the plan's
	// At timer is the first post-build allocation, and every pending event
	// at or below buildSeq sits exactly on the no-shift side.
	base.From = pt.rungs[0].at
	if base.Until != 0 && base.Until <= base.From {
		base.Until = 0
	}
	exec, tr, ok, cause := pt.run(target, base, true)
	if !ok {
		t.Fatalf("build-boundary fork fell back (cause %d)", cause)
	}
	sig := execSignature(exec, tr)
	want, wantTr := runGuarded(target, base, seed, true, 0)
	wantSig := execSignature(want, wantTr)
	if exec.Detected != want.Detected || sig != wantSig ||
		!reflect.DeepEqual(exec.Violations, want.Violations) {
		t.Fatalf("build-boundary fork diverged from full replay\nfork: det=%v sig=%x viol=%+v\nfull: det=%v sig=%x viol=%+v",
			exec.Detected, sig, exec.Violations, want.Detected, wantSig, want.Violations)
	}
}
