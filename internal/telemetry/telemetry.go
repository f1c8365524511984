// Package telemetry is the repo's zero-dependency observability substrate:
// the simulator's instrumentation, and the one ring, histogram and Chrome
// trace writer that dtrace's flight recorder and psimd's metrics share.
//
//   - Ring and Interner (ring.go): a preallocated ring keeping the newest
//     values, and the string table that keeps ring records pointer-free.
//   - Histogram: allocation-free atomic bucket counts that a producer
//     bumps on its hot path and readers snapshot concurrently or write in
//     Prometheus exposition format.
//   - ChromeEvent and WriteChrome (chrome.go): the Chrome trace_event writer
//     every exporter calls.
//   - Collector: an epoch-series sampler. A run binds it to a static Probe
//     table (cumulative counters, instantaneous gauges, or derived ratios)
//     built once per process; the run loop calls EndEpoch at each epoch
//     boundary and the collector turns cumulative values into per-epoch
//     deltas, building a time series exportable as JSONL or CSV.
//   - Tracer (tracer.go): a ring of prefetch lifecycle events
//     (issue→fill→first-use/evict) exportable as JSONL or Chrome
//     trace_event JSON.
//
// Everything is observational: probes read component state, they never
// mutate it, so an instrumented run retires the same instructions in the
// same cycles as an uninstrumented one. The simulator's hot-path types
// tolerate nil receivers so call sites need no telemetry-off branches.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// LatencyBounds are the service's latency buckets in nanoseconds, 1 ms..10 s:
// from a proxied call the owner answers from its store to a proxied
// simulation or a long queue wait.
var LatencyBounds = []uint64{
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10,
}

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

// WritePrometheus writes the histogram in Prometheus text exposition format,
// bounds and sum divided by scale (1e9 turns ns into seconds). The +Inf
// bucket and _count are one loaded total, consistent under concurrent Observe.
func (h *Histogram) WritePrometheus(w io.Writer, name, help string, scale float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b)/scale, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/scale)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}
