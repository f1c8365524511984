package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Lookup resolves a metric computed earlier in the same epoch (table
// order), plus the builtin "instructions" and "cycles" deltas. Unknown names
// resolve to 0.
type Lookup func(name string) float64

// Probe is one row of a probe table: a metric name and exactly one of three
// ways to produce its epoch value. Counter reads a cumulative count from the
// bound source and the epoch records its delta since the previous boundary;
// Gauge reads an instantaneous value at the boundary; Derived computes from
// values recorded earlier in the same epoch. A table is built once and
// shared read-only by every collector bound to it, so binding costs no
// closures or names per run.
type Probe struct {
	Name    string
	Counter func(src any) uint64
	Gauge   func(src any) float64
	Derived func(Lookup) float64
}

// Epoch is one sampled interval of the series.
type Epoch struct {
	Index        int                `json:"epoch"`
	Instructions uint64             `json:"instructions"`
	Cycles       uint64             `json:"cycles"`
	Metrics      map[string]float64 `json:"metrics"`
}

// Collector samples a bound probe table at epoch boundaries into a time
// series. Binding happens once at system construction; EndEpoch runs on the
// simulation goroutine at epoch boundaries only, so nothing here is on the
// per-access hot path. Latest and Epochs may be called concurrently with
// EndEpoch (psimd scrapes live runs).
type Collector struct {
	mu        sync.Mutex
	table     []Probe
	src       any
	last      []uint64 // previous cumulative value of each Counter row
	epochs    []Epoch
	lastInstr uint64
	lastCycle uint64
	latest    map[string]float64
}

// NewCollector creates an unbound collector.
func NewCollector() *Collector {
	return &Collector{}
}

// Bind attaches a probe table and the source its Counter and Gauge rows
// read. Counter rows baseline at their current value, so counts accumulated
// before binding (e.g. during warm-up) never leak into the first epoch's
// delta. A collector holds one table; binding a second panics. Nil-safe.
func (c *Collector) Bind(table []Probe, src any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last != nil {
		panic("telemetry: collector already bound")
	}
	c.table, c.src = table, src
	c.last = make([]uint64, len(table))
	for i, p := range table {
		if p.Counter != nil {
			c.last[i] = p.Counter(src)
		}
	}
}

// EndEpoch closes the current epoch at the given cumulative instruction and
// cycle counts, sampling every row of the bound table. Nil-safe.
func (c *Collector) EndEpoch(instructions, cycles uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := Epoch{
		Index:        len(c.epochs),
		Instructions: instructions - c.lastInstr,
		Cycles:       cycles - c.lastCycle,
		Metrics:      make(map[string]float64, len(c.table)),
	}
	c.lastInstr, c.lastCycle = instructions, cycles
	// The lookup captures copies, not ep, so ep stays off the heap.
	metrics, instr, cyc := ep.Metrics, float64(ep.Instructions), float64(ep.Cycles)
	lookup := func(name string) float64 {
		switch name {
		case "instructions":
			return instr
		case "cycles":
			return cyc
		}
		return metrics[name]
	}
	for i, p := range c.table {
		switch {
		case p.Counter != nil:
			cur := p.Counter(c.src)
			ep.Metrics[p.Name] = float64(cur - c.last[i])
			c.last[i] = cur
		case p.Gauge != nil:
			ep.Metrics[p.Name] = finite(p.Gauge(c.src))
		case p.Derived != nil:
			// Zero-cycle or zero-instruction epochs (back-to-back boundaries,
			// e.g. a final flush landing on a period edge) make naive rate
			// probes divide by zero. encoding/json rejects NaN/Inf outright,
			// so one bad sample would abort the whole JSONL export; record 0
			// instead — "no activity this epoch" — and keep the series
			// machine-readable.
			ep.Metrics[p.Name] = finite(p.Derived(lookup))
		}
	}
	c.epochs = append(c.epochs, ep)
	c.latest = ep.Metrics
}

// finite maps NaN and ±Inf to 0 so epoch series stay JSON-encodable.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Epochs returns the recorded series (shared backing array; callers must
// not mutate). Nil-safe.
func (c *Collector) Epochs() []Epoch {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs
}

// Latest returns the most recent epoch's metric values (nil before the
// first boundary). The map is the epoch's own and must not be mutated.
// Nil-safe.
func (c *Collector) Latest() map[string]float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest
}

// WriteJSONL writes the series as one JSON object per line:
//
//	{"epoch":0,"instructions":100000,"cycles":182345,"metrics":{...}}
//
// Metric keys are sorted (Go's map marshalling), so the schema is stable
// and diffable.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ep := range c.Epochs() {
		if err := enc.Encode(ep); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the series as CSV with a header of
// epoch,instructions,cycles followed by the metric names in sorted order.
func (c *Collector) WriteCSV(w io.Writer) error {
	epochs := c.Epochs()
	if len(epochs) == 0 {
		return nil
	}
	names := make([]string, 0, len(epochs[0].Metrics))
	for n := range epochs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	header := "epoch,instructions,cycles"
	for _, n := range names {
		header += "," + n
	}
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	for _, ep := range epochs {
		row := strconv.Itoa(ep.Index) + "," +
			strconv.FormatUint(ep.Instructions, 10) + "," +
			strconv.FormatUint(ep.Cycles, 10)
		for _, n := range names {
			row += "," + strconv.FormatFloat(ep.Metrics[n], 'g', -1, 64)
		}
		if _, err := io.WriteString(w, row+"\n"); err != nil {
			return err
		}
	}
	return nil
}
