package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf walker, so the benchmark needs
// nothing outside the standard library, and attributes each sample's CPU
// time to a layer by the package of one of its frames.

// cpuLayers are the layer names CPU self time is attributed to, in report
// order.
var cpuLayers = []string{
	"client", "kubelet", "scheduler", "controllers", "operators", "cluster", "encoding_json", "oracle",
	"sim", "store", "apiserver", "trace", "core", "learn", "campaign", "explain", "explore", "infra",
	"runtime", "stdlib", "other",
}

// repoLayer maps the first path element under repro/internal to a layer.
var repoLayer = map[string]string{
	"client": "client", "kubelet": "kubelet", "scheduler": "scheduler",
	"controller": "controllers", "controllers": "controllers", "operators": "operators",
	"cluster": "cluster", "oracle": "oracle", "sim": "sim", "store": "store", "history": "store",
	"apiserver": "apiserver", "trace": "trace", "core": "core", "learn": "learn",
	"campaign": "campaign", "explain": "explain", "explore": "explore", "infra": "infra",
}

// packageOf returns the import path of a Go symbol name as pprof prints
// it, e.g. "repro/internal/client.(*Informer).ListCached" ->
// "repro/internal/client".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package path to its CPU layer.
func layerOf(pkg string) string {
	if pkg == "repro" || strings.HasPrefix(pkg, "repro/") {
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		first, _, _ := strings.Cut(rest, "/")
		if l, ok := repoLayer[first]; ok && rest != pkg {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg != "?" && pkg != "main" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "stdlib"
	}
	return "other"
}

// cpuProfile is a CPU profile reduced to what the benchmark reads: per
// sample, its CPU nanoseconds and its frames' function names, leaf first.
type cpuProfile struct {
	ns     []int64
	frames [][]string
}

// shares attributes every sample's CPU time to a layer chosen by pick from
// the sample's frames and returns each cpuLayers entry's share.
func (p cpuProfile) shares(pick func(frames []string) string) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for i, fr := range p.frames {
		by[pick(fr)] += p.ns[i]
		total += p.ns[i]
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = ratio(float64(by[l]), float64(total))
	}
	return out
}

// leafLayer charges a sample to the package of its leaf frame: the
// layer's own (self) CPU time.
func leafLayer(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	return layerOf(packageOf(frames[0]))
}

// callerLayer charges a sample to the innermost frame inside this
// repository, so allocation, GC assist, hashing and sorting a layer
// causes count against that layer. Samples with no repository frame
// (background GC, the scheduler) keep their leaf layer.
func callerLayer(frames []string) string {
	for _, f := range frames {
		if pkg := packageOf(f); strings.HasPrefix(pkg, "repro/") {
			return layerOf(pkg)
		}
	}
	return leafLayer(frames)
}

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Each sample's value is its last value (CPU nanoseconds); a
// location's lines run from the innermost inlined frame outwards.
func parseCPUProfile(gz []byte) (cpuProfile, error) {
	var prof cpuProfile
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return prof, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return prof, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = walk(raw, func(field, _ int, _ uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					s.vals = appendPacked(s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return prof, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := "?"
				if idx, ok := fnName[fn]; ok && idx < uint64(len(strs)) {
					name = strs[idx]
				}
				frames = append(frames, name)
			}
		}
		prof.ns = append(prof.ns, int64(s.vals[len(s.vals)-1]))
		prof.frames = append(prof.frames, frames)
	}
	return prof, nil
}

// appendPacked appends a repeated varint field that may be encoded either
// packed (wire type 2) or as one varint per entry (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// walk calls fn for every field of one protobuf message: v is the value of
// a varint or fixed field, b the payload of a length-delimited one.
func walk(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := varint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := varint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint; n <= 0 means malformed input.
func varint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repoLayerNames are the layers that name packages of this repository.
var repoLayerNames = func() map[string]struct{} {
	m := map[string]struct{}{}
	for _, l := range repoLayer {
		m[l] = struct{}{}
	}
	return m
}()
