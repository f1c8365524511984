package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/tracecheck"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram must be empty")
	}
}

func TestDisabledHotPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(Event{Kind: EvFill})
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f objects per op", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 4, 16)
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	b := h.Buckets()
	// ≤1: {0,1}; ≤4: {2,4}; ≤16: {5,16}; overflow: {17,1000}.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if b[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d", i, b[i].Count, w)
		}
	}
	if !b[3].Overflow {
		t.Error("last bucket should be the overflow bucket")
	}
	if h.Count() != 8 || h.Sum() != 0+1+2+4+5+16+17+1000 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestCollectorDeltasAndDerived(t *testing.T) {
	var cum uint64
	c := NewCollector()
	c.AddCounter("misses", func() uint64 { return cum })
	c.AddGauge("level", func() float64 { return float64(cum) / 2 })
	c.AddDerived("mpki", func(get Lookup) float64 {
		return get("misses") / get("instructions") * 1000
	})

	cum = 10
	c.EndEpoch(1000, 2000)
	cum = 30
	c.EndEpoch(2000, 5000)

	eps := c.Epochs()
	if len(eps) != 2 {
		t.Fatalf("epochs = %d, want 2", len(eps))
	}
	if eps[0].Metrics["misses"] != 10 || eps[1].Metrics["misses"] != 20 {
		t.Errorf("counter deltas = %v, %v; want 10, 20",
			eps[0].Metrics["misses"], eps[1].Metrics["misses"])
	}
	if eps[1].Instructions != 1000 || eps[1].Cycles != 3000 {
		t.Errorf("epoch 1 instr/cycles = %d/%d", eps[1].Instructions, eps[1].Cycles)
	}
	if eps[1].Metrics["mpki"] != 20 {
		t.Errorf("derived mpki = %v, want 20", eps[1].Metrics["mpki"])
	}
	if eps[1].Metrics["level"] != 15 {
		t.Errorf("gauge = %v, want 15", eps[1].Metrics["level"])
	}
	if c.Latest()["misses"] != 20 {
		t.Errorf("Latest misses = %v", c.Latest()["misses"])
	}
}

// A zero-cycle (or zero-instruction) epoch turns naive rate probes into 0/0.
// The collector must record 0 instead of NaN/Inf: encoding/json rejects
// non-finite values, so a single poisoned sample would abort the whole JSONL
// export.
func TestCollectorZeroCycleEpochStaysFinite(t *testing.T) {
	c := NewCollector()
	c.AddDerived("ipc", func(get Lookup) float64 {
		return get("instructions") / get("cycles") // unguarded on purpose
	})
	c.AddDerived("inf", func(get Lookup) float64 {
		return (get("instructions") + 1) / get("cycles")
	})
	c.AddGauge("gnan", func() float64 { return math.NaN() })

	c.EndEpoch(1000, 2000)
	c.EndEpoch(1000, 2000) // back-to-back boundary: zero-delta epoch

	eps := c.Epochs()
	if len(eps) != 2 {
		t.Fatalf("epochs = %d, want 2", len(eps))
	}
	if eps[1].Cycles != 0 || eps[1].Instructions != 0 {
		t.Fatalf("epoch 1 deltas = %d/%d, want 0/0", eps[1].Instructions, eps[1].Cycles)
	}
	for _, name := range []string{"ipc", "inf", "gnan"} {
		if v := eps[1].Metrics[name]; v != 0 {
			t.Errorf("zero-cycle epoch %s = %v, want 0", name, v)
		}
	}
	if v := eps[0].Metrics["ipc"]; v != 0.5 {
		t.Errorf("normal epoch ipc = %v, want 0.5", v)
	}

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL after zero-cycle epoch: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("JSONL lines = %d, want 2", lines)
	}
}

func TestCollectorJSONLRoundTrips(t *testing.T) {
	c := NewCollector()
	n := uint64(0)
	c.AddCounter("n", func() uint64 { return n })
	n = 5
	c.EndEpoch(100, 200)
	n = 9
	c.EndEpoch(200, 400)

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, line := range lines {
		var ep Epoch
		if err := json.Unmarshal([]byte(line), &ep); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ep.Index != i {
			t.Errorf("line %d epoch index = %d", i, ep.Index)
		}
	}
}

func TestCollectorCSV(t *testing.T) {
	c := NewCollector()
	v := uint64(0)
	c.AddCounter("b", func() uint64 { return v })
	c.AddCounter("a", func() uint64 { return v * 2 })
	v = 3
	c.EndEpoch(10, 20)

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "epoch,instructions,cycles,a,b" {
		t.Errorf("header = %q (metric names must be sorted)", lines[0])
	}
	if lines[1] != "0,10,20,6,3" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestTracerRingKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvFill, At: int64(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.At != int64(6+i) {
			t.Errorf("event %d at %d, want %d (oldest-first)", i, e.At, 6+i)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d", tr.Total(), tr.Dropped())
	}
}

func TestTracerJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Kind: EvFill, Level: "L2", Block: 0x1000, Issue: 5, At: 90,
		PageSize: "2MB", CrossedPage: true, Core: 0})
	tr.Record(Event{Kind: EvUse, Level: "L2", Block: 0x1000, At: 120, Late: true})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "fill" || first["crossed_4k"] != true || first["page_size"] != "2MB" {
		t.Errorf("fill event = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["kind"] != "use" || second["late"] != true {
		t.Errorf("use event = %v", second)
	}
}

// TestChromeTraceStructure pins the acceptance criterion: a JSON array of
// ph/ts/name events with non-decreasing timestamps.
func TestChromeTraceStructure(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Event{Kind: EvFill, Level: "L2", Block: 0x40, Issue: 100, At: 250})
	tr.Record(Event{Kind: EvUse, Level: "L2", Block: 0x40, At: 400})
	tr.Record(Event{Kind: EvFill, Level: "LLC", Block: 0x80, Issue: 50, At: 300})
	tr.Record(Event{Kind: EvEvict, Level: "L2", Block: 0xc0, At: 120})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural validation is shared with the dtrace exporter: one
	// definition of Perfetto-loadable across the repo.
	events := tracecheck.ValidateChromeTrace(t, buf.Bytes())
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
}
