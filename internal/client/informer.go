package client

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
)

// EventHandler receives typed cache events from an Informer. For handlers
// added after the cache is synced, the initial list is replayed as OnAdd
// calls, matching client-go semantics. The objects passed are the cached
// ones and are read-only: a handler that needs a modified copy clones it.
type EventHandler interface {
	OnAdd(obj *cluster.Object)
	OnUpdate(oldObj, newObj *cluster.Object)
	OnDelete(obj *cluster.Object)
}

// HandlerFuncs adapts plain functions to EventHandler; nil funcs are
// skipped.
type HandlerFuncs struct {
	AddFunc    func(obj *cluster.Object)
	UpdateFunc func(oldObj, newObj *cluster.Object)
	DeleteFunc func(obj *cluster.Object)
}

// OnAdd implements EventHandler.
func (h HandlerFuncs) OnAdd(obj *cluster.Object) {
	if h.AddFunc != nil {
		h.AddFunc(obj)
	}
}

// OnUpdate implements EventHandler.
func (h HandlerFuncs) OnUpdate(oldObj, newObj *cluster.Object) {
	if h.UpdateFunc != nil {
		h.UpdateFunc(oldObj, newObj)
	}
}

// OnDelete implements EventHandler.
func (h HandlerFuncs) OnDelete(obj *cluster.Object) {
	if h.DeleteFunc != nil {
		h.DeleteFunc(obj)
	}
}

// Relist retry backoff: the first retry waits relistBackoffBase, each
// subsequent failure doubles the wait up to relistBackoffCap, and every
// wait gets up-to-half jitter from the kernel RNG so a fleet of informers
// relisting against a recovering upstream doesn't synchronize into a
// thundering herd. The RNG is only consulted on the error path, so
// healthy executions draw exactly the same random sequence as before.
const (
	relistBackoffBase = 100 * sim.Millisecond
	relistBackoffCap  = 1600 * sim.Millisecond
)

// InformerConfig tunes informer behaviour.
type InformerConfig struct {
	// WatchTimeout re-establishes the watch (pulling a fresh list if
	// needed) when no event has arrived for this long. 0 disables.
	WatchTimeout sim.Duration
	// RelistEvery forces a periodic full relist regardless of stream
	// health — the defensive resync hardened controllers use to bound the
	// damage of silently lost notifications. 0 disables (stock behaviour:
	// a missed event is missed forever).
	RelistEvery sim.Duration
}

// Informer maintains a component's local cache S' of one kind, fed by
// list+watch from the component's current apiserver. It is the analog of a
// client-go SharedIndexInformer and — per the paper — the canonical home of
// partial histories in infrastructure services.
//
// Cached objects are read-only. The informer installs a private clone of
// every object it receives and never modifies it afterwards; everything it
// hands out (Get, ListCached, ListOnNode, handler arguments) is that
// cached pointer, shared with every other reader and with checkpoint
// snapshots. A caller that wants to write an object back clones it first.
type Informer struct {
	conn *Conn
	kind cluster.Kind
	cfg  InformerConfig

	subID    uint64
	epoch    uint64 // guards async callbacks across relists
	synced   bool
	store    map[string]*cluster.Object // S'
	lastRev  int64                      // frontier of H'
	handlers []EventHandler

	// Read paths derived from store, built on first use and then kept up
	// to date by put and del: all orders every key, byNode orders the
	// pods bound to each Pod.NodeName.
	all    *sortedView
	byNode map[string]*sortedView

	// Obs records the order in which revisions were observed — raw
	// material for time-travel detection by oracles.
	Obs history.ObservationLog

	lastEventAt sim.Time
	relists     int
	retries     int          // failed list attempts (upstream unavailable)
	backoff     sim.Duration // next retry's base delay; 0 = healthy
}

// NewInformer creates (but does not start) an informer for kind on conn.
func NewInformer(conn *Conn, kind cluster.Kind, cfg InformerConfig) *Informer {
	inf := &Informer{
		conn:  conn,
		kind:  kind,
		cfg:   cfg,
		store: make(map[string]*cluster.Object),
	}
	conn.nextSub++
	inf.subID = conn.nextSub
	conn.informers[inf.subID] = inf
	return inf
}

// AddHandler registers a handler. If the cache is already synced the
// current contents are replayed to it as OnAdd calls.
func (i *Informer) AddHandler(h EventHandler) {
	i.handlers = append(i.handlers, h)
	if i.synced {
		for _, o := range i.ListCached() {
			h.OnAdd(o)
		}
	}
}

// Run starts the initial list+watch.
func (i *Informer) Run() {
	i.relist("initial sync")
	if i.cfg.WatchTimeout > 0 {
		i.scheduleLiveness()
	}
	if i.cfg.RelistEvery > 0 {
		i.schedulePeriodicRelist()
	}
}

func (i *Informer) schedulePeriodicRelist() {
	i.conn.world.Kernel().ScheduleTagged(i.cfg.RelistEvery,
		sim.EventTag{Owner: string(i.conn.self), Kind: "inf-relist", Key: fmt.Sprint(i.subID)},
		i.periodicRelistFire)
}

// periodicRelistFire is the periodic-resync timer body; the tag lets a
// restored world re-arm a pending firing.
func (i *Informer) periodicRelistFire() {
	if _, ok := i.conn.informers[i.subID]; !ok {
		return // informer dropped (component crashed)
	}
	i.relist("periodic resync")
	i.schedulePeriodicRelist()
}

// Synced reports whether the initial list completed.
func (i *Informer) Synced() bool { return i.synced }

// LastRevision returns the cache frontier (H' position).
func (i *Informer) LastRevision() int64 { return i.lastRev }

// Relists returns how many list operations the informer has performed.
func (i *Informer) Relists() int { return i.relists }

// Retries returns how many list attempts failed against an unavailable
// upstream and were rescheduled with backoff.
func (i *Informer) Retries() int { return i.retries }

// Get returns the cached object by name. The object is read-only.
func (i *Informer) Get(name string) (*cluster.Object, bool) {
	o, ok := i.store[name]
	return o, ok
}

// ListCached returns all cached objects ordered by name — a sparse read of
// S' in the paper's terms. The slice and its objects are read-only and
// shared: calls with no cache write in between return the same slice. Its
// capacity equals its length, so appending to it copies.
func (i *Informer) ListCached() []*cluster.Object {
	return i.sorted().list(i.store)
}

// ListOnNode returns the cached pods whose Pod.NodeName is node, ordered
// by name: ListCached filtered to one node, under the same read-only
// contract. Objects without a pod payload are never listed.
func (i *Informer) ListOnNode(node string) []*cluster.Object {
	if i.byNode == nil {
		i.byNode = make(map[string]*sortedView)
		for _, o := range i.ListCached() {
			i.index(o)
		}
	}
	v, ok := i.byNode[node]
	if !ok {
		return nil
	}
	return v.list(i.store)
}

// Len returns the number of cached objects.
func (i *Informer) Len() int { return len(i.store) }

func (i *Informer) sorted() *sortedView {
	if i.all == nil {
		names := make([]string, 0, len(i.store))
		for n := range i.store {
			names = append(names, n)
		}
		sort.Strings(names)
		i.all = &sortedView{names: names}
	}
	return i.all
}

// put installs a private clone of o and returns it with the entry it
// replaced.
func (i *Informer) put(o *cluster.Object) (cur, old *cluster.Object, existed bool) {
	name := o.Meta.Name
	old, existed = i.store[name]
	cur = o.Clone()
	i.store[name] = cur
	if i.all != nil {
		i.all.insert(name)
	}
	if i.byNode != nil {
		if existed {
			i.unindex(old)
		}
		i.index(cur)
	}
	return cur, old, existed
}

// del removes name from the cache and returns the entry it held.
func (i *Informer) del(name string) (old *cluster.Object, existed bool) {
	old, existed = i.store[name]
	if !existed {
		return nil, false
	}
	delete(i.store, name)
	if i.all != nil {
		i.all.remove(name)
	}
	if i.byNode != nil {
		i.unindex(old)
	}
	return old, true
}

func (i *Informer) index(o *cluster.Object) {
	if o.Pod == nil {
		return
	}
	v, ok := i.byNode[o.Pod.NodeName]
	if !ok {
		v = &sortedView{}
		i.byNode[o.Pod.NodeName] = v
	}
	v.insert(o.Meta.Name)
}

func (i *Informer) unindex(o *cluster.Object) {
	if o.Pod != nil {
		i.byNode[o.Pod.NodeName].remove(o.Meta.Name)
	}
}

// sortedView is an ordered set of cache keys plus the shared slice of the
// objects they name. Writes edit names in place and drop objs; the next
// read rebuilds objs into a fresh array, so a slice handed out earlier
// never changes.
type sortedView struct {
	names []string
	objs  []*cluster.Object // nil until read after the last write
}

func (v *sortedView) insert(name string) {
	if at, found := slices.BinarySearch(v.names, name); !found {
		v.names = slices.Insert(v.names, at, name)
	}
	v.objs = nil
}

func (v *sortedView) remove(name string) {
	if at, found := slices.BinarySearch(v.names, name); found {
		v.names = slices.Delete(v.names, at, at+1)
	}
	v.objs = nil
}

func (v *sortedView) list(store map[string]*cluster.Object) []*cluster.Object {
	if v.objs == nil {
		v.objs = make([]*cluster.Object, len(v.names))
		for k, name := range v.names {
			v.objs[k] = store[name]
		}
	}
	return v.objs
}

// relist pulls a full list and reconciles the cache against it, emitting
// synthetic Added/Modified/Deleted notifications for the difference — the
// client-go "Replace" path. After a relist the informer re-watches from the
// listed revision.
//
// Crucially, a relist against a stale upstream moves the cache *backwards*:
// deleted objects reappear (OnAdd), recent objects vanish (OnDelete), and
// lastRev regresses. Nothing in this layer prevents that — faithfully
// reproducing the Kubernetes behaviour behind time-travel bugs.
func (i *Informer) relist(reason string) {
	i.epoch++
	epoch := i.epoch
	i.relists++
	i.conn.List(i.kind, false, func(objs []*cluster.Object, rev int64, err error) {
		if epoch != i.epoch {
			return
		}
		if err != nil {
			// Upstream unavailable: retry with capped exponential backoff
			// plus kernel-RNG jitter (deterministic under the world seed).
			i.retries++
			d := i.backoff
			if d == 0 {
				d = relistBackoffBase
			}
			if next := 2 * d; next > relistBackoffCap {
				i.backoff = relistBackoffCap
			} else {
				i.backoff = next
			}
			d += sim.Duration(i.conn.world.Kernel().Rand().Int63n(int64(d/2) + 1))
			i.conn.world.Kernel().Schedule(d, func() {
				if epoch == i.epoch {
					i.relist(reason)
				}
			})
			return
		}
		i.replace(objs, rev)
		i.startWatch(epoch)
	})
}

func (i *Informer) replace(objs []*cluster.Object, rev int64) {
	incoming := make(map[string]*cluster.Object, len(objs))
	for _, o := range objs {
		incoming[o.Meta.Name] = o
	}
	names := make([]string, 0, len(incoming))
	for n := range incoming {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		cur, old, existed := i.put(incoming[name])
		switch {
		case !existed:
			i.emitAdd(cur)
		case old.Meta.ResourceVersion != cur.Meta.ResourceVersion:
			i.emitUpdate(old, cur)
		}
	}
	var gone []string
	for _, name := range i.sorted().names {
		if _, ok := incoming[name]; !ok {
			gone = append(gone, name)
		}
	}
	for _, name := range gone {
		old, _ := i.del(name)
		i.emitDelete(old)
	}
	i.lastRev = rev
	i.Obs.Record(history.Observation{Revision: rev, Key: "(relist)", Time: int64(i.conn.world.Now())})
	i.synced = true
	i.backoff = 0 // a successful replace resets the retry backoff
	i.lastEventAt = i.conn.world.Now()
}

func (i *Informer) startWatch(epoch uint64) {
	i.conn.rpc.Call(i.conn.api, apiserver.MethodWatch,
		&apiserver.WatchRequest{Kind: i.kind, StartRev: i.lastRev, SubID: i.subID},
		func(_ any, err error) {
			if epoch != i.epoch {
				return
			}
			if err != nil {
				if apiserver.IsTooOld(err) {
					i.relist("watch window expired")
					return
				}
				i.conn.world.Kernel().Schedule(100*sim.Millisecond, func() {
					if epoch == i.epoch {
						i.startWatch(epoch)
					}
				})
				return
			}
			i.lastEventAt = i.conn.world.Now()
		})
}

// onPush applies pushed watch events to the cache.
func (i *Informer) onPush(events []apiserver.WatchEvent) {
	for _, ev := range events {
		if ev.Object == nil || ev.Object.Meta.Kind != i.kind {
			continue
		}
		i.Obs.Record(history.Observation{
			Revision: ev.Revision,
			Key:      cluster.Key(i.kind, ev.Object.Meta.Name),
			Time:     int64(i.conn.world.Now()),
		})
		if ev.Revision <= i.lastRev && ev.Revision != 0 {
			// Duplicate or replayed event; client-go dedups by RV.
			continue
		}
		switch ev.Type {
		case apiserver.Added, apiserver.Modified:
			cur, old, existed := i.put(ev.Object)
			if existed {
				i.emitUpdate(old, cur)
			} else {
				i.emitAdd(cur)
			}
		case apiserver.Deleted:
			if old, existed := i.del(ev.Object.Meta.Name); existed {
				i.emitDelete(old)
			} else {
				i.emitDelete(ev.Object)
			}
		}
		if ev.Revision > i.lastRev {
			i.lastRev = ev.Revision
		}
	}
	i.lastEventAt = i.conn.world.Now()
}

func (i *Informer) scheduleLiveness() { i.armLiveness(i.epoch) }

// armLiveness schedules one liveness firing carrying the epoch observed at
// arm time; the tag lets a restored world re-arm a pending firing with the
// identical armed epoch (stale firings must stay no-ops in forked runs,
// exactly as in a full replay).
func (i *Informer) armLiveness(epoch uint64) {
	i.conn.world.Kernel().ScheduleTagged(i.cfg.WatchTimeout,
		sim.EventTag{Owner: string(i.conn.self), Kind: "inf-liveness", Key: fmt.Sprint(i.subID), Epoch: epoch},
		func() { i.livenessFire(epoch) })
}

func (i *Informer) livenessFire(epoch uint64) {
	if _, ok := i.conn.informers[i.subID]; !ok {
		return // informer dropped (component crashed)
	}
	if i.synced && epoch == i.epoch &&
		i.conn.world.Now().Sub(i.lastEventAt) >= i.cfg.WatchTimeout {
		// Stream went quiet: the apiserver may have restarted and lost
		// our subscription. Re-establish.
		i.startWatch(i.epoch)
	}
	i.scheduleLiveness()
}

func (i *Informer) emitAdd(o *cluster.Object) {
	for _, h := range i.handlers {
		h.OnAdd(o)
	}
}

func (i *Informer) emitUpdate(old, new *cluster.Object) {
	for _, h := range i.handlers {
		h.OnUpdate(old, new)
	}
}

func (i *Informer) emitDelete(o *cluster.Object) {
	for _, h := range i.handlers {
		h.OnDelete(o)
	}
}
