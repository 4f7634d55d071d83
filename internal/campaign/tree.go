package campaign

import (
	"sort"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the repository's one checkpoint substrate: a checkpoint
// TREE of cluster snapshots ("rungs") captured during one execution of a
// base plan P, after P's perturbed prefix up to each rung has played out.
// A plan Q that provably shares P's prefix up to a rung forks from that
// rung instead of replaying warmup + workload + the shared perturbations
// from t=0. Three consumers share it, each choosing only where rungs go:
//
//   - campaign executions: P is core.NopPlan (the reference run itself),
//     rungs sit at mass-weighted quantiles of the campaign plans' earliest
//     effect times (effectQuantiles);
//   - the explain pass: P is a detected bucket's example plan, rungs sit at
//     quantiles of its sub-plans' effect times, and the minimization
//     probes and the instrumented re-execution fork mid-plan;
//   - the systematic explorer (Forker): P is core.NopPlan, rungs sit at the
//     explorer's own list of choice-point send times.
//
// Fork discipline replicates a full replay's sequence-number allocation
// exactly: the kernel is rewound to the post-Build counter; Q's sub-plans
// are applied in Q's order, those shared with P in rehydration mode (their
// timers that fired inside the prefix burn their numbers without firing)
// and novel ones under strict-past checking (a novel timer before the rung
// means the fork cannot be exact); the workload is replayed in
// rehydration mode; pending component events are re-installed shifted by
// the signed difference between Q's and P's plan allocation bands; and the
// counter is fast-forwarded to the rung's counter plus that difference.
//
// Eligibility is conservative, proven per (rung, Q) pair by divergence:
//
//   - the divergence bound d is the earliest effect of any sub-plan in the
//     symmetric difference of P's and Q's sub-plan multisets, evaluated
//     against BOTH the unperturbed reference trace and the base run's
//     perturbed trace (a perturbation can move a mined delivery);
//   - occurrence-counted sub-plans contribute their first matching
//     delivery in both streams even when shared: their interceptor state
//     (matches seen) is not part of a snapshot, so a fork is exact only
//     when counting had not started by the rung;
//   - a rung qualifies iff its capture instant is at or before d; any
//     sub-plan with an unbounded effect time, or an occurrence-counted
//     sub-plan whose victim lost watch pushes in either trace (its match
//     stream is then incomplete), disqualifies the tree for that Q.
//
// Anything that fails these checks — or trips the strict-past, restore or
// watchdog guards at fork time — falls back to a full replay, whose
// result is canonical, so snapshot-on and snapshot-off runs produce
// byte-identical artifacts. Diagnosable fallbacks are counted per cause.

// maxCheckpoints caps a tree's rungs; more rungs cost capture time and
// memory for diminishing prefix savings.
const maxCheckpoints = 12

// captureSlideAttempts bounds how far (in 1ms steps) a capture slides past
// its candidate instant looking for quiescence before abandoning it.
const captureSlideAttempts = 25

// captureMargin is how far before a requested instant the tree aims its
// capture. Requested instants are mined moments (plan effect times, choice
// point sends), which are exactly the busy instants where capture must
// slide forward — often past the instant itself, leaving the rung useless
// for the very plans that asked for it. Aiming a few virtual milliseconds
// early gives the slide room to land at or before the instant.
const captureMargin = 4 * sim.Millisecond

// fallbackCause classifies why a fork fell back to full replay. Only
// diagnosable causes are counted in Stats.SnapshotFallbacks; a plan that
// simply has no qualifying rung (effect before the first rung, or an
// unbounded effect time) is routine prefix economics, not a fallback worth
// surfacing.
type fallbackCause uint8

const (
	fallbackNone fallbackCause = iota
	fallbackUnsnapshotable
	fallbackStrictPast
	fallbackRestoreError
	fallbackWatchdog
)

// rung is one checkpoint of the tree: a snapshot plus the base run's trace
// prefix at the capture instant.
type rung struct {
	at    sim.Time
	snap  *infra.Snapshot
	trace *trace.Trace
}

// planTree is the per-(target, seed, base plan) fork substrate, built once
// and shared read-only by every execution that forks from it.
type planTree struct {
	seed      int64
	base      core.Plan
	baseKeys  map[string]subCount
	ref       *trace.Trace
	baseTrace *trace.Trace
	// baseExec is the base plan's own execution, nil when the base run
	// stopped at the last rung (a NopPlan base with a known reference).
	baseExec   *core.Execution
	budget     uint64
	buildSeq   uint64
	buildSteps uint64
	buildEnd   sim.Time
	horizon    sim.Duration
	shiftBase  uint64
	rungs      []rung
	// unsnapshotable marks a tree whose cluster refused Snapshotable():
	// every run then falls back with a counted cause.
	unsnapshotable bool
}

// subCount is one entry of a sub-plan multiset: a representative plan and
// its multiplicity.
type subCount struct {
	plan  core.Plan
	count int
}

// buildPlanTree executes base once from t=0 and captures a rung
// captureMargin before each requested instant (plus one at the build
// boundary). budget is the fork watchdog's kernel step budget
// (0 = DefaultEventBudget). With a NopPlan base and a known reference
// trace, the reference IS the base trace and the base run stops at the
// last rung; otherwise the base run finishes, so its execution and
// complete perturbed trace are available. Returns nil when no rung could
// be captured — the caller then runs full replays — and an unsnapshotable
// sentinel tree when the cluster cannot snapshot at all.
func buildPlanTree(t core.Target, base core.Plan, seed int64, ref *trace.Trace, instants []sim.Time, budget uint64) (pt *planTree) {
	defer func() {
		if recover() != nil {
			pt = nil
		}
	}()
	c := t.Build(seed)
	if !c.Snapshotable() {
		return &planTree{unsnapshotable: true}
	}
	if budget == 0 {
		budget = DefaultEventBudget
	}
	k := c.World.Kernel()
	pt = &planTree{
		seed:       seed,
		base:       base,
		baseKeys:   subplanMultiset(flatten(base, nil)),
		ref:        ref,
		budget:     budget,
		buildSeq:   k.Seq(),
		buildSteps: k.Steps(),
		buildEnd:   k.Now(),
		horizon:    t.Horizon,
	}
	rec := trace.NewRecorder()
	rec.Attach(c.World.Network(), c.Store.Store())
	// Tag the plan band and the workload's timers so they are identifiable
	// in rung snapshots: forks skip them and recreate Q's own by
	// re-application. Nested timers scheduled by a plan action at fire time
	// stay untagged — a rung whose capture instant has one pending simply
	// fails to capture.
	ptag := sim.EventTag{Owner: "plan", Kind: "action"}
	k.SetDefaultTag(&ptag)
	base.Apply(c)
	k.SetDefaultTag(nil)
	pt.shiftBase = k.Seq() - pt.buildSeq
	wtag := sim.EventTag{Owner: "workload", Kind: "action"}
	k.SetDefaultTag(&wtag)
	t.Workload(c)
	k.SetDefaultTag(nil)

	end := pt.buildEnd.Add(t.Horizon)
	for _, cand := range pt.rungTimes(instants, end) {
		if cand < k.Now() {
			continue // a previous capture slid past this candidate
		}
		k.Run(cand)
		snap, ok := captureWithSlide(c, k, end)
		if !ok {
			continue
		}
		pt.rungs = append(pt.rungs, rung{at: k.Now(), snap: snap, trace: rec.T.Fork()})
	}
	if len(pt.rungs) == 0 {
		return nil
	}
	if _, nop := base.(core.NopPlan); nop && ref != nil {
		pt.baseTrace = ref
		return pt
	}
	// Finish the base run: the complete perturbed trace backs occurrence
	// eligibility, and the base execution doubles as the minimizer's
	// initial reproduction probe.
	k.Run(end)
	pt.baseTrace = rec.T
	pt.baseExec = &core.Execution{
		Plan:       base,
		Seed:       seed,
		Violations: c.Violations(),
		Detected:   c.Oracles.Violated(t.Bug),
	}
	return pt
}

// rungTimes converts requested instants into a capture schedule: the build
// boundary first, then each instant shifted captureMargin early (a
// snapshot must precede the event it serves), clamped inside
// (buildEnd, end), sorted, deduplicated, and capped at maxCheckpoints.
func (pt *planTree) rungTimes(instants []sim.Time, end sim.Time) []sim.Time {
	shifted := make([]sim.Time, 0, len(instants))
	for _, at := range instants {
		cand := at.Add(-captureMargin)
		if cand > pt.buildEnd && cand < end {
			shifted = append(shifted, cand)
		}
	}
	sort.Slice(shifted, func(i, j int) bool { return shifted[i] < shifted[j] })
	out := []sim.Time{pt.buildEnd}
	for _, cand := range shifted {
		if len(out) == maxCheckpoints {
			break
		}
		if out[len(out)-1] != cand {
			out = append(out, cand)
		}
	}
	return out
}

// effectQuantiles returns up to maxCheckpoints-1 mass-weighted quantiles
// (endpoints included) of the plans' earliest effect times against ref —
// the instants campaign and explain trees request rungs at. Quantiles are
// taken over the per-plan multiset, NOT the distinct times, so when many
// plans share one mined moment (gap plans all dropping deliveries of the
// same hot object), a rung lands exactly there and the bulk of the plans
// fork with a minimal residual replay. Plans with no bounded effect time
// request nothing.
func effectQuantiles(plans []core.Plan, ref *trace.Trace) []sim.Time {
	var effs []sim.Time
	for _, p := range plans {
		if eff, ok := core.EarliestEffect(p, ref); ok && eff != core.NoEffect {
			effs = append(effs, eff)
		}
	}
	if len(effs) == 0 {
		return nil
	}
	sort.Slice(effs, func(i, j int) bool { return effs[i] < effs[j] })
	quota := maxCheckpoints - 1
	out := make([]sim.Time, 0, quota)
	for i := 0; i < quota; i++ {
		out = append(out, effs[i*(len(effs)-1)/(quota-1)])
	}
	return out
}

// captureWithSlide captures the cluster at the current instant, advancing
// virtual time in 1ms steps while the instant is not quiescent (an untagged
// timer pending, a message held, an RPC call in flight).
func captureWithSlide(c *infra.Cluster, k *sim.Kernel, end sim.Time) (*infra.Snapshot, bool) {
	for attempt := 0; attempt < captureSlideAttempts; attempt++ {
		if snap, ok := c.Capture(); ok {
			return snap, true
		}
		if k.Now() >= end {
			return nil, false
		}
		k.RunFor(sim.Millisecond)
	}
	return nil, false
}

// flatten appends p's sub-plans to out in application order: a
// SequencePlan applies its sub-plans in list order, so applying the
// flattened list one by one allocates the same sequence numbers as
// p.Apply. NopPlans perturb nothing and are dropped.
func flatten(p core.Plan, out []core.Plan) []core.Plan {
	switch q := p.(type) {
	case core.SequencePlan:
		for _, sub := range q.Plans {
			out = flatten(sub, out)
		}
	case core.NopPlan:
	default:
		out = append(out, p)
	}
	return out
}

// subKey identifies a sub-plan by ID+Describe (IDs alone omit some
// secondary parameters).
func subKey(p core.Plan) string { return p.ID() + "\x00" + p.Describe() }

// subplanMultiset counts flattened sub-plans by key.
func subplanMultiset(subs []core.Plan) map[string]subCount {
	out := make(map[string]subCount, len(subs))
	for _, q := range subs {
		key := subKey(q)
		sc := out[key]
		sc.plan = q
		sc.count++
		out[key] = sc
	}
	return out
}

// occurrenceVictim reports whether p counts matching deliveries at
// runtime — the plan kinds whose interceptor or gate carries state a
// snapshot cannot hold — and the component whose deliveries it counts.
// Covers send-side occurrence gaps and the delivery-coordinate plans
// (drop/delay gates) the explorer emits.
func occurrenceVictim(p core.Plan) (sim.NodeID, bool) {
	switch q := p.(type) {
	case core.GapPlan:
		return q.Victim, q.Occurrence > 0
	case core.DropDeliveryPlan:
		return q.Victim, true
	case core.DelayDeliveryPlan:
		return q.Victim, true
	}
	return "", false
}

// divergence returns the latest instant up to which an execution of the
// plan with sub-plans subs is provably identical to the base run, or
// ok=false when no such bound can be established.
func (pt *planTree) divergence(subs []core.Plan) (sim.Time, bool) {
	d := core.NoEffect
	bound := func(sub core.Plan) bool {
		if v, occ := occurrenceVictim(sub); occ &&
			(pt.ref.DroppedPushesTo(v) > 0 || pt.baseTrace.DroppedPushesTo(v) > 0) {
			// The victim lost watch pushes; its match stream is incomplete
			// and no occurrence bound is trustworthy.
			return false
		}
		eff, ok := core.EarliestEffect(sub, pt.ref)
		if !ok {
			return false
		}
		if pt.baseTrace != pt.ref {
			effBase, ok := core.EarliestEffect(sub, pt.baseTrace)
			if !ok {
				return false
			}
			eff = min(eff, effBase)
		}
		d = min(d, eff)
		return true
	}
	qKeys := subplanMultiset(subs)
	for k, b := range pt.baseKeys {
		_, occ := occurrenceVictim(b.plan)
		// A shared occurrence-counted sub-plan still bounds d: the fork's
		// fresh interceptor starts at zero matches, so counting must not
		// have begun by the rung.
		if qKeys[k].count != b.count || occ {
			if !bound(b.plan) {
				return 0, false
			}
		}
	}
	for k, q := range qKeys {
		if _, shared := pt.baseKeys[k]; !shared && !bound(q.plan) {
			return 0, false
		}
	}
	return d, true
}

// forkRung returns the latest rung at or before the divergence bound of
// the plan with sub-plans subs, or nil when none qualifies.
func (pt *planTree) forkRung(subs []core.Plan) *rung {
	d, ok := pt.divergence(subs)
	if !ok {
		return nil
	}
	var best *rung
	for i := range pt.rungs {
		if pt.rungs[i].at <= d {
			best = &pt.rungs[i]
		} else {
			break
		}
	}
	return best
}

// run executes q by forking from the deepest eligible rung. With
// instrument set the returned trace is the full perturbed trace from t=0
// (rung prefix + recorded suffix), as a full instrumented replay would
// produce. ok=false means the caller must fall back to a full replay;
// cause classifies diagnosable failures (fallbackNone when q simply has no
// eligible rung).
func (pt *planTree) run(t core.Target, q core.Plan, instrument bool) (exec core.Execution, tr *trace.Trace, ok bool, cause fallbackCause) {
	if pt.unsnapshotable {
		return core.Execution{}, nil, false, fallbackUnsnapshotable
	}
	if !instrument && pt.baseExec != nil && q.ID() == pt.base.ID() && q.Describe() == pt.base.Describe() {
		return *pt.baseExec, nil, true, fallbackNone
	}
	defer func() {
		if recover() != nil {
			exec, tr, ok, cause = core.Execution{}, nil, false, fallbackRestoreError
		}
	}()
	subs := flatten(q, nil)
	rg := pt.forkRung(subs)
	if rg == nil {
		return core.Execution{}, nil, false, fallbackNone
	}
	c2, err := rg.snap.NewCluster()
	if err != nil {
		return core.Execution{}, nil, false, fallbackRestoreError
	}
	k := c2.World.Kernel()
	var rec *trace.Recorder
	if instrument {
		rec = trace.NewRecorderFor(rg.trace.Fork())
		rec.Attach(c2.World.Network(), c2.Store.Store())
	}
	// Q's plan band replays directly after the Build boundary, sub-plan by
	// sub-plan in Q's order. Instances the base shares already played out
	// inside the prefix: their timers before the rung burn their numbers.
	// Novel instances must not reach into the prefix at all.
	cut := rg.snap.Kernel.Now
	k.SetSeq(pt.buildSeq)
	shared := make(map[string]int, len(pt.baseKeys))
	for _, sub := range subs {
		if key := subKey(sub); shared[key] < pt.baseKeys[key].count {
			shared[key]++
			k.BeginRehydrate(cut)
			sub.Apply(c2)
			k.EndRehydrate()
			continue
		}
		k.SetStrictPast(true)
		sub.Apply(c2)
		k.SetStrictPast(false)
		if k.StrictViolation() != "" {
			return core.Execution{}, nil, false, fallbackStrictPast
		}
	}
	shiftQ := k.Seq() - pt.buildSeq
	k.BeginRehydrate(cut)
	t.Workload(c2)
	k.EndRehydrate()
	// Pending component events shift by the DIFFERENCE between Q's and the
	// base plan's allocation bands — signed, since Q may allocate less
	// (minimization removes sub-plans).
	delta := int64(shiftQ) - int64(pt.shiftBase)
	if err := c2.InstallPending(rg.snap.Kernel.Pending, pt.buildSeq, delta); err != nil {
		return core.Execution{}, nil, false, fallbackRestoreError
	}
	k.SetSeq(uint64(int64(rg.snap.Kernel.Seq) + delta))
	k.SetMaxSteps(pt.buildSteps + pt.budget)
	deadline := pt.buildEnd.Add(pt.horizon)
	k.Run(deadline)
	if k.Steps() >= pt.buildSteps+pt.budget && k.Now() < deadline {
		// Livelocked: discard the fork so the full replay produces the
		// canonical Hung record.
		return core.Execution{}, nil, false, fallbackWatchdog
	}
	exec = core.Execution{
		Plan:       q,
		Seed:       pt.seed,
		Violations: c2.Violations(),
		Detected:   c2.Oracles.Violated(t.Bug),
	}
	if instrument {
		tr = rec.T
	}
	return exec, tr, true, fallbackNone
}

// execute runs q forked from the tree when the fork is provably exact and
// as a full replay (runGuarded, under budget) otherwise; a nil tree always
// replays. forked reports which path served q; cause says why an attempted
// fork fell back (fallbackNone when it did not, or had no eligible rung).
func (pt *planTree) execute(t core.Target, q core.Plan, seed int64, instrument bool, budget uint64) (exec core.Execution, tr *trace.Trace, forked bool, cause fallbackCause) {
	if pt != nil {
		var ok bool
		if exec, tr, ok, cause = pt.run(t, q, instrument); ok {
			return exec, tr, true, fallbackNone
		}
	}
	exec, tr = runGuarded(t, q, seed, instrument, budget)
	return exec, tr, false, cause
}
