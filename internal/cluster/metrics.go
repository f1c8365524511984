package cluster

import (
	"fmt"
	"io"
	"sync"
)

// Histogram is a fixed-bucket cumulative histogram in the Prometheus mold:
// Observe files a value into every bucket whose upper bound admits it, and
// Write emits _bucket{le=...}, _sum, and _count samples. Exported so sibling
// packages (the service's queue-wait histogram) reuse one implementation.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implied
	counts []uint64  // len(bounds)+1, last is the overflow (+Inf) bucket
	sum    float64
	total  uint64
}

// NewLatencyHistogram covers 1ms..10s — the plausible span of a cross-node
// cache fetch (sub-ms on localhost) through a proxied full simulation, and
// equally of a job's queue wait on a loaded daemon.
func NewLatencyHistogram() Histogram {
	bounds := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe files one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := len(h.bounds) // overflow bucket
	for b, bound := range h.bounds {
		if v <= bound {
			i = b
			break
		}
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// Write emits the histogram family in exposition format.
func (h *Histogram) Write(w io.Writer, name, help string) {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}

// WriteMetrics renders the node's psimd_cluster_* metric families in
// Prometheus text exposition format; the service appends it to /metrics.
func (n *Node) WriteMetrics(w io.Writer) {
	alive, dead := n.mem.Counts()
	fmt.Fprintf(w, "# HELP psimd_cluster_peers Known remote members by routability.\n# TYPE psimd_cluster_peers gauge\n")
	fmt.Fprintf(w, "psimd_cluster_peers{state=\"alive\"} %d\n", alive)
	fmt.Fprintf(w, "psimd_cluster_peers{state=\"dead\"} %d\n", dead)
	fmt.Fprintf(w, "# HELP psimd_cluster_ring_nodes Members on the routing ring (self included).\n# TYPE psimd_cluster_ring_nodes gauge\npsimd_cluster_ring_nodes %d\n", n.mem.Ring().Len())

	st := n.Stats()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("psimd_cluster_remote_hits_total", "Results served by a peer's cache instead of simulating here.", st.RemoteHits)
	counter("psimd_cluster_proxied_total", "Simulations executed remotely on their owning node.", st.ProxiedSims)
	counter("psimd_cluster_failovers_total", "Remote attempts abandoned for local execution.", st.Failovers)
	counter("psimd_cluster_entries_served_total", "Cache entries served to peers.", st.EntriesServed)

	n.proxyLatency.Write(w, "psimd_cluster_proxy_latency_seconds",
		"Round-trip seconds of remote cache fetches and proxied simulations.")
}
