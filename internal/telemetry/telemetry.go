// Package telemetry is the simulator's zero-dependency instrumentation
// layer. It provides three pieces:
//
//   - Histogram: allocation-free atomic bucket counts that a producer
//     bumps on its hot path and readers snapshot concurrently.
//   - Collector: an epoch-series sampler. Components register probes once
//     (cumulative counters, instantaneous gauges, or derived ratios); the
//     run loop calls EndEpoch at each epoch boundary and the collector turns
//     cumulative values into per-epoch deltas, building a time series
//     exportable as JSONL or CSV.
//   - Tracer (tracer.go): a preallocated ring of prefetch lifecycle events
//     (issue→fill→first-use/evict) exportable as JSONL or Chrome
//     trace_event JSON.
//
// Everything is observational: probes read component state, they never
// mutate it, so an instrumented run retires the same instructions in the
// same cycles as an uninstrumented one. All exported types tolerate nil
// receivers on their hot-path methods so call sites need no telemetry-off
// branches.
package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into explicit upper-bound buckets plus an
// overflow bucket. Bounds are inclusive upper edges and must be ascending.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1: last is the overflow bucket
	sum    atomic.Uint64
	n      atomic.Uint64
}

// NewHistogram creates a histogram with the given ascending inclusive
// upper-bound bucket edges.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Bucket is one histogram bucket: observations ≤ UpperBound (the overflow
// bucket has UpperBound 0 and Overflow true).
type Bucket struct {
	UpperBound uint64
	Overflow   bool
	Count      uint64
}

// Buckets returns a snapshot of the bucket counts.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, 0, len(h.bounds)+1)
	for i, b := range h.bounds {
		out = append(out, Bucket{UpperBound: b, Count: h.counts[i].Load()})
	}
	out = append(out, Bucket{Overflow: true, Count: h.counts[len(h.bounds)].Load()})
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}
