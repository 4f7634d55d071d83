package campaign

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/workload"
)

// encodedObj is an informer-cached object as it read at capture time.
type encodedObj struct {
	bytes []byte
	rv    int64
}

// cacheRecord holds every informer-cached object some snapshot shares,
// each once, keyed by pointer.
type cacheRecord map[*cluster.Object]encodedObj

// add records the informer caches of every connection snapshot.
func (r cacheRecord) add(s *infra.Snapshot) {
	conns := []*client.ConnSnapshot{s.AdminConn}
	for _, node := range s.Opts.Nodes {
		conns = append(conns, s.Kubelets[node].Conn)
	}
	if s.Scheduler != nil {
		conns = append(conns, s.Scheduler.Conn)
	}
	if s.Volume != nil {
		conns = append(conns, s.Volume.Conn)
	}
	if s.NodeLC != nil {
		conns = append(conns, s.NodeLC.Conn)
	}
	if s.App != nil {
		conns = append(conns, s.App.Conn)
	}
	if s.Cassandra != nil {
		conns = append(conns, s.Cassandra.Conn)
	}
	if s.RegionManager != nil {
		conns = append(conns, s.RegionManager.Conn)
	}
	for _, conn := range conns {
		if conn == nil {
			continue
		}
		for _, inf := range conn.Informers {
			for _, o := range inf.Store {
				if _, seen := r[o]; !seen {
					r[o] = encodedObj{cluster.MustEncode(o), o.Meta.ResourceVersion}
				}
			}
		}
	}
}

// drift returns the recorded objects that no longer read as captured.
func (r cacheRecord) drift() []string {
	var out []string
	for o, was := range r {
		if o.Meta.ResourceVersion != was.rv || !bytes.Equal(cluster.MustEncode(o), was.bytes) {
			out = append(out, o.String())
		}
	}
	return out
}

// captureGrid is how many evenly spaced instants runCapturing captures
// at. The grid is dense so that captures often land between a component
// reading a cached object and acting on it, where a write into the object
// would show.
const captureGrid = 400

// runCapturing builds target at seed 1, captures the world on a grid of
// instants (each sliding to the next quiescent one), records the informer
// objects the snapshots share, and runs the world on to the horizon. hook,
// when set, runs right after the build.
func runCapturing(t *testing.T, target core.Target, hook func(*infra.Cluster)) cacheRecord {
	t.Helper()
	c := target.Build(1)
	if hook != nil {
		hook(c)
	}
	target.Workload(c)
	k := c.World.Kernel()
	start := k.Now()
	end := start.Add(target.Horizon)
	rec := cacheRecord{}
	captures := 0
	for i := 1; i < captureGrid; i++ {
		at := start.Add(target.Horizon * sim.Duration(i) / captureGrid)
		if at < k.Now() {
			continue
		}
		k.Run(at)
		if snap, ok := captureWithSlide(c, k, end); ok {
			rec.add(snap)
			captures++
		}
	}
	k.Run(end)
	if captures < 2 || len(rec) == 0 {
		t.Fatalf("%d captures sharing %d cached objects: the check is vacuous", captures, len(rec))
	}
	return rec
}

// TestInformerCacheReadOnly checks the contract checkpoint sharing rests
// on: an informer never modifies an object once cached, and neither does
// any reader it hands one to. A snapshot shares those objects with the
// world it was taken from and with every cluster restored from it, so
// each must read the same after (a) the capturing world ran on to the
// horizon and (b) forks from the campaign tree's rungs ran to the horizon
// concurrently. Under -race, (b) also flags an unsynchronised write to a
// shared object or to state built lazily from it.
func TestInformerCacheReadOnly(t *testing.T) {
	targets := workload.AllTargets()
	if !testing.Short() {
		targets = append(targets, workload.ScaleRackDrainTarget(workload.Scale100))
	}
	for _, target := range targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			if drift := runCapturing(t, target, nil).drift(); len(drift) > 0 {
				t.Fatalf("live run modified %d cached objects, e.g. %s", len(drift), drift[0])
			}

			pt, plans, _ := campaignTree(t, target, 1)
			rec := cacheRecord{}
			for _, rg := range pt.rungs {
				rec.add(rg.snap)
			}
			const workers, forks = 2, 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for f := w; f < forks; f += workers {
						pt.run(target, plans[f*len(plans)/forks], false)
					}
				}(w)
			}
			wg.Wait()
			if drift := rec.drift(); len(drift) > 0 {
				t.Fatalf("forks modified %d cached objects shared by rungs, e.g. %s", len(drift), drift[0])
			}
		})
	}
}

// TestInformerCacheReadOnlyCatchesMutation: a handler that writes into
// ListCached results, as a careless controller would, must be caught.
// Node heartbeats update the cache all run long, so the handler keeps
// rewriting nodes some earlier capture holds.
func TestInformerCacheReadOnlyCatchesMutation(t *testing.T) {
	mutate := func(c *infra.Cluster) {
		inf := client.NewInformer(c.Admin.Conn(), cluster.KindNode, client.InformerConfig{})
		touches := 0
		inf.AddHandler(client.HandlerFuncs{UpdateFunc: func(_, _ *cluster.Object) {
			touches++
			for _, n := range inf.ListCached() {
				n.Meta.Labels = map[string]string{"touched": strconv.Itoa(touches)}
			}
		}})
		inf.Run()
	}
	if drift := runCapturing(t, workload.Target59848(), mutate).drift(); len(drift) == 0 {
		t.Fatal("a handler mutated ListCached results and the check saw no drift")
	}
}
