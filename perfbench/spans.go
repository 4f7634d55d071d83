package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/trace"
)

// span is one timed interval at a layer boundary, recorded from outside
// the program: name, start, end, the span that caused it, and the unit
// (one campaign or one exploration) it belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: a unit's root span
	Unit   int           `json:"unit"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the log's origin
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark writes them out.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	units  int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) newUnit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.units++
	return l.units
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// workers) are merged first, so covered time is never counted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// seedSetup tracks one world seed's set-up interval inside a unit: from
// the seed's first Build (the reference run) to the first callback that
// belongs to a plan or schedule execution.
type seedSetup struct {
	seed       int64
	start, end time.Time
	armed      bool // plans generated (campaign) or reference finished (explore)
	ladderLeft int  // Builds after arming that belong to the checkpoint ladder
	ladder     map[*infra.Cluster]bool
	spanID     int
}

// observer watches one unit from outside the program through the
// engine's extension points: wrappers around Target.Build and
// Target.Workload, a Strategy wrapper around Plans, and Config.OnOutcome.
// It yields the set-up time, the time to the first reported detection and
// the per-execution wall times; with a span log it also records spans.
type observer struct {
	mu         sync.Mutex
	log        *spanLog // nil: untraced
	unit, root int
	start      time.Time
	ladder     int  // Builds per seed that belong to the checkpoint ladder
	armOnPlans bool // campaigns arm on Plans; explorations on the reference run
	seeds      []*seedSetup
	cur        *seedSetup

	detectAt time.Duration // since start; < 0 until a detection is reported
	wallUS   []float64     // per execution, from PlanOutcome.WallMicros
	builds   int
	buildDur time.Duration
}

func newObserver(log *spanLog, ladder int, armOnPlans bool) *observer {
	o := &observer{log: log, ladder: ladder, armOnPlans: armOnPlans, start: time.Now(), detectAt: -1}
	if log != nil {
		o.unit = log.newUnit()
	}
	return o
}

func (o *observer) since(t time.Time) time.Duration {
	if o.log == nil {
		return 0
	}
	return t.Sub(o.log.origin)
}

// record adds a span under the current seed's open set-up span when the
// interval starts inside it, under the unit's root otherwise. The caller
// holds o.mu.
func (o *observer) record(name string, st, en time.Time) {
	if o.log == nil {
		return
	}
	parent := o.rootID()
	if s := o.cur; s != nil && (s.end.IsZero() || st.Before(s.end)) {
		parent = s.spanID
	}
	o.log.add(span{Parent: parent, Unit: o.unit, Name: name, Start: o.since(st), End: o.since(en)})
}

// rootID reserves the unit's root span id on first use so children can
// name it before the root's end is known.
func (o *observer) rootID() int {
	if o.root == 0 {
		o.root = o.log.add(span{Unit: o.unit})
	}
	return o.root
}

// closeSeed ends the current seed's set-up at t if it is still open.
func (o *observer) closeSeed(t time.Time) {
	s := o.cur
	if s == nil || !s.end.IsZero() {
		return
	}
	s.end = t
}

func (o *observer) beforeBuild(seed int64, now time.Time) (ladder bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cur == nil || o.cur.seed != seed {
		known := false
		for _, s := range o.seeds {
			known = known || s.seed == seed
		}
		if !known {
			o.closeSeed(now)
			start := now
			if len(o.seeds) == 0 {
				start = o.start
			}
			s := &seedSetup{seed: seed, start: start, ladderLeft: o.ladder, ladder: map[*infra.Cluster]bool{}}
			if o.log != nil {
				s.spanID = o.log.add(span{Parent: o.rootID(), Unit: o.unit, Name: "setup"})
			}
			o.seeds = append(o.seeds, s)
			o.cur = s
			return false
		}
		// A Build for an earlier seed (the explanation pass) ends any
		// set-up still open.
		o.closeSeed(now)
		return false
	}
	s := o.cur
	if !s.armed || !s.end.IsZero() {
		return false
	}
	if s.ladderLeft > 0 {
		s.ladderLeft--
		return true
	}
	s.end = now
	return false
}

func (o *observer) afterBuild(c *infra.Cluster, ladder bool, st, en time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ladder {
		o.cur.ladder[c] = true
	}
	o.builds++
	o.buildDur += en.Sub(st)
	o.record("build", st, en)
}

func (o *observer) beforeWorkload(c *infra.Cluster, now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.cur; s != nil && s.armed && s.end.IsZero() && !s.ladder[c] {
		s.end = now
	}
}

func (o *observer) afterWorkload(st, en time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.cur; s != nil && !s.armed && !o.armOnPlans {
		s.armed = true
	}
	o.record("workload", st, en)
}

func (o *observer) plans(st, en time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cur != nil {
		o.cur.armed = true
	}
	o.record("plans", st, en)
}

func (o *observer) outcome(po campaign.PlanOutcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wallUS = append(o.wallUS, float64(po.WallMicros))
	if po.Detected && o.detectAt < 0 {
		o.detectAt = time.Since(o.start)
	}
}

// finish closes the unit at end and returns its total set-up time. The
// root span is named after the unit kind.
func (o *observer) finish(kind string, end time.Time) time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closeSeed(end)
	var setup time.Duration
	for _, s := range o.seeds {
		setup += s.end.Sub(s.start)
	}
	if o.log != nil {
		rootID := o.rootID()
		o.log.mu.Lock()
		for _, s := range o.seeds {
			sp := &o.log.spans[s.spanID-1]
			sp.Start, sp.End = o.since(s.start), o.since(s.end)
		}
		root := &o.log.spans[rootID-1]
		root.Name, root.Start, root.End = kind, o.since(o.start), o.since(end)
		o.log.mu.Unlock()
	}
	return setup
}

// target wraps t's Build and Workload so the observer sees every world
// the unit builds and every run it starts. Behaviour is unchanged: the
// wrappers only read the clock around the original calls (the same
// pattern workload.UnindexedServing uses to vary a target).
func (o *observer) target(t core.Target) core.Target {
	build, wl := t.Build, t.Workload
	t.Build = func(seed int64) *infra.Cluster {
		st := time.Now()
		ladder := o.beforeBuild(seed, st)
		c := build(seed)
		o.afterBuild(c, ladder, st, time.Now())
		return c
	}
	t.Workload = func(c *infra.Cluster) {
		st := time.Now()
		o.beforeWorkload(c, st)
		wl(c)
		o.afterWorkload(st, time.Now())
	}
	return t
}

// observedStrategy times a strategy's Plans call.
type observedStrategy struct {
	core.Strategy
	o *observer
}

func (s observedStrategy) Plans(t core.Target, ref *trace.Trace) []core.Plan {
	st := time.Now()
	plans := s.Strategy.Plans(t, ref)
	s.o.plans(st, time.Now())
	return plans
}
