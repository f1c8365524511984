// Command perfbench is the repository benchmark. It runs one workload for a
// fixed host-time budget, checks every simulation against an output oracle,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 a separate traced run reports per-layer metrics:
// the single-core simulations are assembled outside the sim package from the
// layers' public constructors and timed at the interface seams between them.
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash perfbench/run.sh --workload stream_pf --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input; endToEnd and traced fill a report
// within the budget.
type workload struct {
	name     string
	endToEnd func(b *bench) error
	traced   func(b *bench) error
}

var workloads = []workload{
	{"stream_pf", rowsEndToEnd(streamPF), rowsTraced(streamPF)},
	{"miss_walk", rowsEndToEnd(missWalk), rowsTraced(missWalk)},
	{"figure_local", figureEndToEnd(false), figureTraced(false)},
	{"figure_psimd", figureEndToEnd(true), figureTraced(true)},
}

// buildDir holds everything a run writes, relative to the repository root
// the benchmark runs from; run.sh builds the binary there too.
const buildDir = ".bench_build"

// bench is one run's context: its inputs, its budget, its scratch directory,
// and the report it fills.
type bench struct {
	seed     uint64
	budget   time.Duration
	work     string // scratch directory, removed on exit
	expected expectedSet
	record   bool // write oracle digests for this seed instead of checking them
	rep      *report
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: stream_pf, miss_walk, figure_local, figure_psimd")
	seed := flag.Uint64("seed", 1, "input seed (simulation and trace-generator seed)")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	record := flag.Bool("record-expected", false, "rewrite this seed's oracle digests in perfbench/expected.json")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	if err := mapKernelTables(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	b := &bench{
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		work:     work,
		expected: loadExpected(),
		record:   *record,
		rep:      &report{},
	}
	fn := w.endToEnd
	if *traced == 1 {
		fn = w.traced
	}
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.record {
		if err := b.expected.save(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return b.rep.print(os.Stdout)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// fits reports whether another pass of about pass seconds, begun now, ends
// within the budget of a run that started at start.
func (b *bench) fits(start time.Time, pass float64) bool {
	return time.Since(start)+time.Duration(pass*float64(time.Second)) <= b.budget
}

// scratch returns a fresh directory under the run's scratch directory.
func (b *bench) scratch(prefix string) (string, error) {
	return os.MkdirTemp(b.work, prefix)
}

// report accumulates the oracle's verdicts and the metrics of one run.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

type metric struct {
	name, unit string
	value      float64
}

// check records one oracle verdict; a failed one is logged to stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// note adds an informational line to the human-readable output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one line per metric, the notes, and the JSON result line.
func (r *report) print(f *os.File) int {
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is not finite", m.name)
			v = 0
		}
		fmt.Fprintf(f, "%-34s %16.6g %s\n", m.name, v, m.unit)
		out[m.name] = value{v, m.unit}
	}
	if r.attempted > 0 {
		fmt.Fprintf(f, "%-34s %16.6g %s\n", "failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(f, string(line))
	return 0
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowDecile returns the tenth percentile of xs (nearest rank, rounding
// down): the eighth fastest of 80 samples, the fastest of ten or fewer.
func lowDecile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/10]
}

// tail returns the highest order statistic with at least ten samples above
// it, and its percentile; with ten samples or fewer it returns the maximum.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (total int64, files int, err error) {
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
			files++
		}
		return nil
	})
	return total, files, err
}
