package core

import (
	"fmt"
	"sort"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Planner is the partial-history testing strategy of Section 7. It mines
// the reference trace and emits plans in three families, ordered by how
// likely they are to flip a component's decision:
//
//  1. Observability gaps — drop a single high-value notification (deletion
//     or deletion-mark events first), or black out one object's entire
//     stream to one component.
//  2. Time traveling — freeze an alternate apiserver at an interesting
//     moment, crash a resteerable component later, and restart it against
//     the frozen view.
//  3. Staleness — freeze an apiserver for a window around each commit.
//  4. Gray failures — degrade (not cut) the links that actually carried
//     watch deliveries in the reference run (fail-slow latency, flaky
//     drop/duplicate/reorder), and compact the store aggressively at mined
//     moments — optionally while an apiserver's watch is stalled — forcing
//     ErrCompacted → relist storms (§4.2's forced-relist hazard).
//
// Causality approximation: gap candidates are restricted to kinds the
// victim actually subscribes to, and (when CausalFilter is set) to objects
// the victim itself wrote to or deletion-adjacent events — "perturbing
// events that are causally related to a component's action are likely to
// trigger bugs" (§7).
type Planner struct {
	// CausalFilter restricts gap candidates to causally-suspect events;
	// disabling it is the unguided ablation used by experiment E6.
	CausalFilter bool
	// CausalRanking orders one-shot drop plans by how many component
	// actions each delivery plausibly caused (trace.CausalGraph.Score).
	CausalRanking bool
	// PrioritizeDeletionPaths puts deletion-adjacent drops first.
	PrioritizeDeletionPaths bool
	// BlackoutWindow is the duration of sustained object blackouts
	// (0 = until the end of the execution).
	BlackoutWindow sim.Duration
	// MaxFreezePoints bounds how many commit times seed time-travel and
	// staleness plans (stride-sampled when exceeded).
	MaxFreezePoints int
	// CrashDelays are the delays between a freeze point and the component
	// crash in time-travel plans.
	CrashDelays []sim.Duration
	// MaxPlans caps the total plan list (0 = unlimited).
	MaxPlans int
	// GrayFreezePoints bounds how many freeze points seed gray-failure
	// plans (a sub-sample of the staleness/time-travel freeze points).
	GrayFreezePoints int
	// GrayWindow is how long a degraded-link window lasts.
	GrayWindow sim.Duration
	// FlakyDrop/FlakyDup/FlakyReorder are the loss/duplication/reorder
	// percentages mined FlakyLinkPlans use.
	FlakyDrop    int
	FlakyDup     int
	FlakyReorder int
	// SlowExtra/SlowJitter are the latency inflation mined SlowLinkPlans use.
	SlowExtra  sim.Duration
	SlowJitter sim.Duration
	// CompactionKeep is the retain limit mined CompactionPressurePlans
	// impose on the store.
	CompactionKeep int
	// Family toggles for the ablation experiment (all false = every
	// family enabled).
	DisableGaps        bool
	DisableTimeTravel  bool
	DisableStaleness   bool
	DisableGrayFailure bool

	// Learn, when set, post-processes the final plan list — the hook the
	// trace-learning phase (internal/learn) uses to prune plans whose
	// perturbation provably cannot intersect anything the target's
	// components consumed, and to reorder survivors by learned impact.
	// The hook must be a pure function of its arguments (determinism is
	// pinned by tests). It runs after family mining, dedup, and the
	// MaxPlans cap.
	Learn func(t Target, ref *trace.Trace, plans []Plan) []Plan
}

// NewPlanner returns the default tool configuration.
func NewPlanner() *Planner {
	return &Planner{
		CausalFilter:            true,
		CausalRanking:           true,
		PrioritizeDeletionPaths: true,
		BlackoutWindow:          2 * sim.Second,
		MaxFreezePoints:         48,
		CrashDelays:             []sim.Duration{sim.Second, 3 * sim.Second},
		GrayFreezePoints:        6,
		GrayWindow:              2 * sim.Second,
		FlakyDrop:               50,
		FlakyDup:                25,
		FlakyReorder:            25,
		SlowExtra:               300 * sim.Millisecond,
		SlowJitter:              100 * sim.Millisecond,
		CompactionKeep:          2,
	}
}

// Name implements Strategy.
func (p *Planner) Name() string {
	if p.CausalFilter {
		return "partial-history"
	}
	return "ph-unguided"
}

// Plans implements Strategy.
func (p *Planner) Plans(t Target, ref *trace.Trace) []Plan {
	var high, mid, blackouts, travels, low []Plan
	var highScore, midScore []int
	graph := trace.NewCausalGraph(ref, 0)

	// --- Family 1: observability gaps -------------------------------
	type objKey struct {
		to   sim.NodeID
		kind cluster.Kind
		name string
	}
	blackedOut := map[objKey]bool{}
	actedOn := ref.WriteSet()
	deliveries := ref.Deliveries
	if p.DisableGaps {
		deliveries = nil
	}
	for _, d := range deliveries {
		// Never perturb the admin's own view: the workload driver is the
		// experimenter, not a system under test.
		if d.To == "admin" {
			continue
		}
		suspect := d.EventType == apiserver.Deleted || d.Terminating
		acted := actedOn[trace.WriteKey{From: d.To, Kind: d.Kind, Name: d.Name}]
		if p.CausalFilter && !suspect && !acted {
			continue
		}

		// One-shot drop of exactly this delivery, scored by how many
		// component actions it plausibly caused (§7: "perturbing events
		// that are causally related to a component's action are likely to
		// trigger bugs").
		drop := GapPlan{
			Victim:     d.To,
			Kind:       d.Kind,
			Name:       d.Name,
			Type:       d.EventType,
			Occurrence: d.Occurrence,
		}
		score := graph.Score(d)
		if suspect && p.PrioritizeDeletionPaths {
			high = append(high, drop)
			highScore = append(highScore, score)
		} else {
			mid = append(mid, drop)
			midScore = append(midScore, score)
		}

		// Sustained blackout of this object's stream from its first
		// delivery onward (one per object per victim).
		ok := objKey{d.To, d.Kind, d.Name}
		if !blackedOut[ok] {
			blackedOut[ok] = true
			until := sim.Time(0)
			if p.BlackoutWindow > 0 {
				until = d.Time.Add(p.BlackoutWindow)
			}
			blackouts = append(blackouts, GapPlan{
				Victim: d.To,
				Kind:   d.Kind,
				Name:   d.Name,
				From:   d.Time,
				Until:  until,
			})
		}
	}

	// --- Family 2: time traveling ------------------------------------
	freezePoints := p.sampleFreezePoints(ref)
	resteerable := t.Topology.Resteerable
	if p.DisableTimeTravel {
		resteerable = nil
	}
	for _, comp := range resteerable {
		for _, api := range t.Topology.APIServers {
			for _, ft := range freezePoints {
				for _, delay := range p.CrashDelays {
					crashAt := ft.Add(delay)
					if sim.Duration(crashAt) >= sim.Duration(t.Horizon) {
						continue
					}
					travels = append(travels, TimeTravelPlan{
						Component:    comp,
						StaleAPI:     api,
						FreezeAt:     ft.Add(5 * sim.Millisecond),
						CrashAt:      crashAt,
						RestartDelay: 100 * sim.Millisecond,
						HealAt:       crashAt.Add(600 * sim.Millisecond),
					})
				}
			}
		}
	}

	// --- Family 3: staleness ------------------------------------------
	staleAPIs := t.Topology.APIServers
	if p.DisableStaleness {
		staleAPIs = nil
	}
	for _, api := range staleAPIs {
		for _, ft := range freezePoints {
			low = append(low, StalenessPlan{
				Victim: api,
				From:   ft.Add(-sim.Millisecond),
				Until:  ft.Add(2 * sim.Second),
			})
		}
	}

	// --- Family 4: gray failures --------------------------------------
	var gray []Plan
	if !p.DisableGrayFailure {
		grayPoints := sampleTimes(freezePoints, p.GrayFreezePoints)
		window := p.GrayWindow
		if window <= 0 {
			window = 2 * sim.Second
		}

		// Compaction pressure at each mined moment: first pure (retain-limit
		// squeeze alone), then stalling each apiserver across the compaction
		// so its watch resumption is guaranteed to hit ErrCompacted.
		victims := append([]sim.NodeID{""}, t.Topology.APIServers...)
		for _, v := range victims {
			for _, ft := range grayPoints {
				gray = append(gray, CompactionPressurePlan{
					At:   ft.Add(-sim.Millisecond),
					Keep: p.CompactionKeep, Victim: v,
				})
			}
		}

		// Flaky windows on the links that actually carried watch deliveries
		// in the reference run — the mined causal surface, not every pair.
		type link struct{ a, b sim.NodeID }
		linkSeen := map[link]bool{}
		var links []link
		for _, d := range ref.Deliveries {
			if d.To == "admin" {
				continue
			}
			l := link{d.From, d.To}
			if !linkSeen[l] {
				linkSeen[l] = true
				links = append(links, l)
			}
		}
		for _, l := range links {
			for _, ft := range grayPoints {
				from := ft.Add(-sim.Millisecond)
				gray = append(gray, FlakyLinkPlan{
					A: l.a, B: l.b,
					DropPercent:    p.FlakyDrop,
					DupPercent:     p.FlakyDup,
					ReorderPercent: p.FlakyReorder,
					ReorderDelay:   20 * sim.Millisecond,
					From:           from, Until: from.Add(window),
				})
			}
		}

		// Fail-slow store feeds: stretch each apiserver's link to the store.
		for _, api := range t.Topology.APIServers {
			for _, ft := range grayPoints {
				from := ft.Add(-sim.Millisecond)
				gray = append(gray, SlowLinkPlan{
					A: api, B: infra.StoreID,
					Extra: p.SlowExtra, Jitter: p.SlowJitter,
					From: from, Until: from.Add(window),
				})
			}
		}
	}

	// Order the one-shot drop buckets by causal score (stable, so equal
	// scores keep trace order). Blackouts, time-travel, and staleness
	// plans carry no per-delivery score and keep construction order.
	if p.CausalRanking {
		sortByScore(high, highScore)
		sortByScore(mid, midScore)
	}

	plans := high
	plans = append(plans, mid...)
	plans = append(plans, blackouts...)
	plans = append(plans, travels...)
	plans = append(plans, low...)
	plans = append(plans, gray...)
	plans = dedupePlans(plans)
	if p.MaxPlans > 0 && len(plans) > p.MaxPlans {
		plans = plans[:p.MaxPlans]
	}
	if p.Learn != nil {
		plans = p.Learn(t, ref, plans)
	}
	return plans
}

// Validate reports configuration errors that would otherwise silently
// mine empty or no-op plan families: a zero SlowExtra emits slow-link
// plans that slow nothing, an all-zero flaky triple emits healthy "flaky"
// links, a CompactionKeep below the store's floor is silently clamped,
// and zero/negative sampling bounds disable sampling instead of bounding
// it. Callers building a Planner by hand (ablations, CLI flag plumbing)
// should Validate before mining; NewPlanner's defaults always pass.
func (p *Planner) Validate() error {
	if p.MaxPlans < 0 {
		return fmt.Errorf("planner: MaxPlans = %d; must be >= 0 (0 = unlimited)", p.MaxPlans)
	}
	if p.BlackoutWindow < 0 {
		return fmt.Errorf("planner: BlackoutWindow = %s; must be >= 0 (0 = until the end)", p.BlackoutWindow)
	}
	if !p.DisableTimeTravel || !p.DisableStaleness {
		if p.MaxFreezePoints <= 0 {
			return fmt.Errorf("planner: MaxFreezePoints = %d with time-travel/staleness enabled; a zero/negative bound disables freeze-point sampling and floods the campaign — set a positive bound or disable the families", p.MaxFreezePoints)
		}
	}
	if !p.DisableTimeTravel {
		if len(p.CrashDelays) == 0 {
			return fmt.Errorf("planner: time travel enabled with no CrashDelays; the family would mine zero plans — add delays or set DisableTimeTravel")
		}
		for _, d := range p.CrashDelays {
			if d <= 0 {
				return fmt.Errorf("planner: CrashDelay %s is not positive; the crash would race the freeze instead of following it", d)
			}
		}
	}
	if !p.DisableGrayFailure {
		if p.GrayFreezePoints <= 0 {
			return fmt.Errorf("planner: GrayFreezePoints = %d with gray failures enabled; a zero/negative bound disables sampling (every freeze point seeds gray plans) — set a positive bound or DisableGrayFailure", p.GrayFreezePoints)
		}
		if p.GrayWindow <= 0 {
			return fmt.Errorf("planner: GrayWindow = %s; a degraded-link window must be positive", p.GrayWindow)
		}
		if p.SlowExtra <= 0 {
			return fmt.Errorf("planner: SlowExtra = %s; slow-link plans with no added latency are no-ops — set a positive inflation or DisableGrayFailure", p.SlowExtra)
		}
		if p.SlowJitter < 0 {
			return fmt.Errorf("planner: SlowJitter = %s; must be >= 0", p.SlowJitter)
		}
		if p.CompactionKeep < 2 {
			return fmt.Errorf("planner: CompactionKeep = %d; the store clamps retain limits below 2, so the plan would silently diverge from its ID — use >= 2", p.CompactionKeep)
		}
		for _, knob := range []struct {
			name string
			v    int
		}{{"FlakyDrop", p.FlakyDrop}, {"FlakyDup", p.FlakyDup}, {"FlakyReorder", p.FlakyReorder}} {
			if knob.v < 0 || knob.v > 100 {
				return fmt.Errorf("planner: %s = %d; percentages must be in [0,100]", knob.name, knob.v)
			}
		}
		if p.FlakyDrop == 0 && p.FlakyDup == 0 && p.FlakyReorder == 0 {
			return fmt.Errorf("planner: flaky-link knobs are all zero; the family would mine healthy links labelled flaky — set at least one of FlakyDrop/FlakyDup/FlakyReorder or DisableGrayFailure")
		}
	}
	return nil
}

// sampleFreezePoints returns up to MaxFreezePoints commit times,
// stride-sampled but always retaining the first and last.
func (p *Planner) sampleFreezePoints(ref *trace.Trace) []sim.Time {
	return sampleTimes(ref.CommitTimes(), p.MaxFreezePoints)
}

// sampleTimes stride-samples times down to max entries, always retaining
// the first and last (no-op when max <= 0 or times already fits).
func sampleTimes(times []sim.Time, max int) []sim.Time {
	if max <= 0 || len(times) <= max {
		return times
	}
	if max == 1 {
		return times[:1]
	}
	out := make([]sim.Time, 0, max)
	stride := float64(len(times)-1) / float64(max-1)
	for i := 0; i < max; i++ {
		out = append(out, times[int(float64(i)*stride)])
	}
	return out
}

// sortByScore stably sorts plans[:len(scores)] by descending score; any
// trailing unscored plans (blackouts appended after the scored drops) keep
// their positions relative to each other at the end.
func sortByScore(plans []Plan, scores []int) {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	scored := make([]Plan, n)
	for out, in := range idx {
		scored[out] = plans[in]
	}
	copy(plans, scored)
}

func dedupePlans(plans []Plan) []Plan {
	seen := make(map[string]bool, len(plans))
	out := plans[:0]
	for _, p := range plans {
		id := p.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, p)
	}
	return out
}

// PlanFamilies reports how many plans of each family a list contains
// (diagnostics for E6).
func PlanFamilies(plans []Plan) map[string]int {
	out := map[string]int{}
	for _, p := range plans {
		switch p.(type) {
		case GapPlan:
			out["gap"]++
		case TimeTravelPlan:
			out["timetravel"]++
		case StalenessPlan:
			out["staleness"]++
		case CrashPlan:
			out["crash"]++
		case PartitionPlan:
			out["partition"]++
		case SlowLinkPlan:
			out["slowlink"]++
		case FlakyLinkPlan:
			out["flakylink"]++
		case CompactionPressurePlan:
			out["compaction"]++
		default:
			out["other"]++
		}
	}
	return out
}
