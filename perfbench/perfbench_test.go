package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/infra"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{5, 1, 3}, 50); got != 3 {
		t.Errorf("p50 of {5,1,3} = %g, want 3", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of {4,1,3,2} = %g, want 2.5", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990: 10 beyond
		{9999, 99, true},    // p99.9 would leave 9
		{1000, 99, true},
		{999, 95, true}, // p99 rank 990 leaves 9
		{100, 90, true},
		{54, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g,%v; want %g,%v", c.n, got, ok, c.want, c.ok)
			continue
		}
		if ok {
			if rank := nearestRank(got, c.n); c.n-rank < minBeyond {
				t.Errorf("n=%d p%g leaves %d samples beyond", c.n, got, c.n-rank)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "campaign", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "build", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "build", Start: 20 * ms, End: 50 * ms},  // overlaps 2 (parallel workers)
		{ID: 4, Parent: 1, Name: "plans", Start: 90 * ms, End: 120 * ms}, // clipped at the parent's end
		{ID: 5, Parent: 3, Name: "workload", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	by := selfByName(spans)
	if by["build"] != 40*ms || by["campaign"] != 50*ms {
		t.Errorf("self by name = %v", by)
	}
}

func TestObserverSetupBoundary(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ref, ladder, replay := &infra.Cluster{}, &infra.Cluster{}, &infra.Cluster{}
	fork := &infra.Cluster{}

	// A snapshotting campaign: reference, plans, ladder, then executions.
	o := newObserver(newSpanLog(), 1, true)
	o.start = at(0)
	if o.beforeBuild(1, at(1)) {
		t.Fatal("reference build taken for the ladder")
	}
	o.afterBuild(ref, false, at(1), at(2))
	o.beforeWorkload(ref, at(2))
	o.afterWorkload(at(2), at(3))
	o.plans(at(10), at(20))
	if !o.beforeBuild(1, at(21)) {
		t.Fatal("first build after planning is the checkpoint ladder")
	}
	o.afterBuild(ladder, true, at(21), at(22))
	o.beforeWorkload(ladder, at(22))
	o.afterWorkload(at(22), at(23))
	o.beforeWorkload(fork, at(40)) // first forked execution ends set-up
	o.beforeBuild(1, at(41))       // a full replay afterwards changes nothing
	o.afterBuild(replay, false, at(41), at(42))
	o.outcome(campaignOutcome(false, 900))
	o.outcome(campaignOutcome(true, 1100))
	if got := o.finish("campaign", at(100)); got != 40*time.Millisecond {
		t.Errorf("setup = %v, want 40ms", got)
	}
	if len(o.wallUS) != 2 || o.detectAt < 0 {
		t.Errorf("outcomes not observed: %v detectAt=%v", o.wallUS, o.detectAt)
	}

	// Without a ladder the first post-planning build ends set-up; a second
	// seed starts its own set-up at its reference build.
	o = newObserver(nil, 0, true)
	o.start = at(0)
	o.beforeBuild(1, at(1))
	o.plans(at(5), at(6))
	o.beforeBuild(1, at(7))
	o.beforeBuild(2, at(50))
	o.plans(at(55), at(60))
	o.beforeWorkload(fork, at(62))
	if got := o.finish("campaign", at(70)); got != (7+12)*time.Millisecond {
		t.Errorf("two-seed setup = %v, want 19ms", got)
	}

	// An exploration arms on the reference run's end and skips the
	// checkpoint tree's build and run.
	o = newObserver(nil, 1, false)
	o.start = at(0)
	o.beforeBuild(1, at(1))
	o.afterBuild(ref, false, at(1), at(2))
	o.beforeWorkload(ref, at(2))
	o.afterWorkload(at(2), at(8))
	o.afterBuild(ladder, o.beforeBuild(1, at(9)), at(9), at(10))
	o.beforeWorkload(ladder, at(10))
	o.afterWorkload(at(10), at(11))
	o.beforeWorkload(fork, at(15))
	if got := o.finish("explore", at(30)); got != 15*time.Millisecond {
		t.Errorf("explore setup = %v, want 15ms", got)
	}
}

func TestOutputGate(t *testing.T) {
	want := output{Detected: true, Executions: 44, Buckets: []string{"aa", "bb"}}
	if d := compareOutput("x/1", want, want); d != nil {
		t.Fatalf("identical outputs rejected: %v", d)
	}
	drift := want
	drift.Executions = 45
	if d := compareOutput("x/1", want, drift); len(d) != 1 || !strings.Contains(d[0], "detect_execs") {
		t.Errorf("drifted detect_execs not rejected: %v", d)
	}
	missing := want
	missing.Buckets = []string{"bb"}
	if d := compareOutput("x/1", want, missing); len(d) != 1 || !strings.Contains(d[0], "aa missing") {
		t.Errorf("missing bucket signature not rejected: %v", d)
	}
	extra := want
	extra.Buckets = []string{"aa", "bb", "cc"}
	if d := compareOutput("x/1", want, extra); len(d) != 1 {
		t.Errorf("unrecorded bucket signature not rejected: %v", d)
	}

	st := explore.Stats{ScheduleSpace: 169, SchedulesExecuted: 159, SchedulesCollapsed: 10}
	cert := output{Executions: 159, Outcome: "certificate", Stats: &st}
	exp := expectedOutputs{"exhaustive": {"k/1": cert}}
	if d := checkUnit(exp, "exhaustive", "k/1", cert); d != nil {
		t.Errorf("matching certificate rejected: %v", d)
	}
	if d := checkUnit(exp, "exhaustive", "k/2", cert); len(d) != 1 || !strings.Contains(d[0], "no recorded output") {
		t.Errorf("unrecorded unit not rejected: %v", d)
	}
	bad := st
	bad.SchedulesCollapsed = 9
	broken := cert
	broken.Stats = &bad
	exp["exhaustive"]["k/1"] = broken
	if d := checkUnit(exp, "exhaustive", "k/1", broken); len(d) != 1 || !strings.Contains(d[0], "accounting") {
		t.Errorf("broken certificate accounting not rejected: %v", d)
	}
}

func TestRecordedOutputsLoad(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		for _, set := range [][]int64{w.seeds, w.heldOut} {
			for _, c := range w.cells(set) {
				if _, ok := exp[w.name][c.key()]; !ok {
					t.Errorf("%s: no recorded output for %s", w.name, c.key())
				}
			}
		}
	}
}

func TestPackageAndLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/client.(*Informer).ListCached":      "client",
		"repro/internal/operators/cassandra.(*Operator).fn": "operators",
		"repro/internal/sim.(*Slab[...]).Alloc":             "sim",
		"repro/internal/workload.Target59848.func1":         "other",
		"encoding/json.(*decodeState).object":               "encoding_json",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"sort.Slice":               "stdlib",
		"main.(*observer).outcome": "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layer of %s = %s (package %s), want %s", fn, got, packageOf(fn), want)
		}
	}
}

// protoBuf is a minimal protobuf encoder for building test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

func TestCPUProfileAggregation(t *testing.T) {
	names := []string{"", "runtime.mallocgc", "repro/internal/cluster.(*Object).Clone",
		"repro/internal/client.(*Informer).ListCached", "encoding/json.Unmarshal", "runtime.gcBgMarkWorker"}
	var prof protoBuf
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}
	for id := 1; id < len(names); id++ {
		var fn protoBuf
		fn.varint(1, uint64(id))
		fn.varint(2, uint64(id))
		prof.bytes(5, fn.b)
	}
	// Location 1 inlines mallocgc into Clone; locations 2-4 are single frames.
	loc := func(id uint64, fns ...uint64) {
		var l protoBuf
		l.varint(1, id)
		for _, f := range fns {
			var line protoBuf
			line.varint(1, f)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	loc(1, 1, 2)
	loc(2, 3)
	loc(3, 4)
	loc(4, 5)
	sample := func(ns uint64, packedLocs bool, locs ...uint64) {
		var s protoBuf
		if packedLocs {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, 1, ns)
		prof.bytes(2, s.b)
	}
	sample(60, true, 1, 2, 2, 2) // malloc inside Clone called by ListCached
	sample(20, false, 3)         // json decode, unpacked location ids
	sample(20, false, 4)         // background GC, no repository frame
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	p, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ns) != 3 {
		t.Fatalf("samples = %d, want 3", len(p.ns))
	}
	leaf := p.shares(leafLayer)
	if leaf["runtime"] != 0.8 || leaf["encoding_json"] != 0.2 || leaf["cluster"] != 0 {
		t.Errorf("leaf shares = %v", leaf)
	}
	inner := p.shares(callerLayer)
	if inner["cluster"] != 0.6 || inner["encoding_json"] != 0.2 || inner["runtime"] != 0.2 {
		t.Errorf("innermost-repository shares = %v", inner)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestParsesRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("runtime/pprof output rejected: %v", err)
	}
	for _, fr := range p.frames {
		if len(fr) == 0 {
			t.Fatal("sample without frames")
		}
	}
}

func campaignOutcome(detected bool, wallUS int64) campaign.PlanOutcome {
	return campaign.PlanOutcome{Detected: detected, WallMicros: wallUS}
}

// TestUnitAgainstRecordedOutput runs one real campaign unit and one
// exploration unit, traced, through the same path a benchmark run takes.
func TestUnitAgainstRecordedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper-triage", "exhaustive"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		c := w.cells(w.seeds)[0]
		log := newSpanLog()
		u := w.runUnit(c, log)
		if d := checkUnit(exp, w.name, u.key, u.out); d != nil {
			t.Errorf("%s: %v", name, d)
		}
		if u.setup <= 0 || u.setup >= u.wall {
			t.Errorf("%s %s: setup %v outside (0, wall %v)", name, u.key, u.setup, u.wall)
		}
		if u.failed != 0 || len(u.failures) != 0 {
			t.Errorf("%s %s: failures %v", name, u.key, u.failures)
		}
		self := selfByName(log.spans)
		if self["setup"] <= 0 || self["build"] <= 0 {
			t.Errorf("%s: spans missing: %v", name, self)
		}
	}
}
