package client

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/apiserver"
	"repro/internal/cluster"
)

// cachedPointerHandler fails the test unless every object a handler
// receives for a live cache entry is that entry itself, not a copy.
type cachedPointerHandler struct {
	t   *testing.T
	inf **Informer
}

func (h cachedPointerHandler) OnAdd(o *cluster.Object) { h.check("add", o) }
func (h cachedPointerHandler) OnUpdate(_, o *cluster.Object) {
	h.check("update", o)
}
func (h cachedPointerHandler) OnDelete(*cluster.Object) {}

func (h cachedPointerHandler) check(what string, o *cluster.Object) {
	if cached := (*h.inf).store[o.Meta.Name]; cached != o {
		h.t.Errorf("%s %s: handler got a copy, not the cached object", what, o.Meta.Name)
	}
}

// TestListCachedViewMatchesStore drives random cache writes — watch adds,
// modifies (pods moving between nodes included) and deletes, relists that
// add and drop keys, and snapshot/restore round trips — and after every
// step compares the incrementally maintained read paths with a
// from-scratch sort of the store.
func TestListCachedViewMatchesStore(t *testing.T) {
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	inf.AddHandler(cachedPointerHandler{t, &inf})
	rng := rand.New(rand.NewSource(7))
	nodes := []string{"", "n1", "n2", "n3"}
	rev := int64(0)
	pod := func(name string) *cluster.Object {
		rev++
		o := cluster.NewPod(name, "uid-"+name, cluster.PodSpec{NodeName: nodes[rng.Intn(len(nodes))]})
		o.Meta.ResourceVersion = rev
		return o
	}
	push := func(typ apiserver.EventType, o *cluster.Object) {
		inf.onPush([]apiserver.WatchEvent{{Type: typ, Object: o, Revision: o.Meta.ResourceVersion}})
	}

	prev := inf.ListCached()
	prevCopy := slices.Clone(prev)
	for step := 0; step < 600; step++ {
		before := maps.Clone(inf.store)
		name := fmt.Sprintf("p%02d", rng.Intn(40))
		switch op := rng.Intn(20); {
		case op < 10:
			push(apiserver.Modified, pod(name))
		case op < 16:
			push(apiserver.Deleted, pod(name))
		case op < 18:
			var objs []*cluster.Object
			for k := 0; k < 40; k++ {
				n := fmt.Sprintf("p%02d", k)
				old, cached := inf.store[n]
				switch r := rng.Intn(4); {
				case cached && r == 0: // dropped by the relist
				case cached && r == 1:
					objs = append(objs, old) // unchanged
				case r >= 2:
					objs = append(objs, pod(n)) // new or modified
				}
			}
			rev++
			inf.replace(objs, rev)
		default:
			snap, ok := f.c.conn.Snapshot()
			if !ok {
				t.Fatalf("step %d: snapshot refused", step)
			}
			f.c.conn = RestoreConn(f.w, snap)
			inf, _ = f.c.conn.Informer(inf.SubID())
			inf.RestoreHandler(cachedPointerHandler{t, &inf})
			// Write before the first read: the restored informer's read
			// paths are not built yet.
			push(apiserver.Added, pod(name))
		}

		names := make([]string, 0, len(inf.store))
		for n := range inf.store {
			names = append(names, n)
		}
		sort.Strings(names)
		got := inf.ListCached()
		if len(got) != len(names) || cap(got) != len(got) {
			t.Fatalf("step %d: ListCached len %d cap %d, store has %d", step, len(got), cap(got), len(names))
		}
		for k, n := range names {
			if got[k] != inf.store[n] {
				t.Fatalf("step %d: ListCached[%d] is not the cached %s", step, k, n)
			}
		}
		if again := inf.ListCached(); unsafe.SliceData(again) != unsafe.SliceData(got) {
			t.Fatalf("step %d: two reads with no write between returned different views", step)
		}
		// After a write the new view must not share the old one's backing
		// array, and the old one must still read as it did. A step that
		// wrote nothing (deleting an absent name) keeps the view.
		wrote := !maps.Equal(before, inf.store)
		if wrote && len(prev) > 0 && unsafe.SliceData(got) == unsafe.SliceData(prev) {
			t.Fatalf("step %d: view after a write aliases the previous view", step)
		}
		if !wrote && unsafe.SliceData(got) != unsafe.SliceData(prev) {
			t.Fatalf("step %d: view rebuilt although nothing was written", step)
		}
		if !slices.Equal(prev, prevCopy) {
			t.Fatalf("step %d: a write changed a view handed out earlier", step)
		}
		prev, prevCopy = got, slices.Clone(got)

		for _, node := range append(nodes, "n9") {
			var want []*cluster.Object
			for _, o := range got {
				if o.Pod.NodeName == node {
					want = append(want, o)
				}
			}
			on := inf.ListOnNode(node)
			if !slices.Equal(on, want) || cap(on) != len(on) {
				t.Fatalf("step %d: ListOnNode(%q) = %d pods (cap %d), want %d", step, node, len(on), cap(on), len(want))
			}
			if again := inf.ListOnNode(node); len(on) > 0 && unsafe.SliceData(again) != unsafe.SliceData(on) {
				t.Fatalf("step %d: two ListOnNode(%q) reads returned different views", step, node)
			}
		}
	}
}
