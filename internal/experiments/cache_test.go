package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// TestWarmCacheRunsZeroSims is the acceptance criterion for the result
// cache: after one full figure run, a second identical invocation (a fresh
// store on the same directory, as a new process would open) performs zero
// simulations and reproduces the figure exactly.
func TestWarmCacheRunsZeroSims(t *testing.T) {
	dir := t.TempDir()
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:3]
	o.Warmup = 20_000
	o.Instructions = 80_000

	cold, err := simcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = cold
	r1, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Misses == 0 {
		t.Fatalf("cold run executed no sims: %+v", s)
	}

	warm, err := simcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = warm
	r2, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	s := warm.Stats()
	if s.Misses != 0 {
		t.Errorf("warm run executed %d sims, want 0", s.Misses)
	}
	if s.Hits == 0 {
		t.Error("warm run recorded no hits")
	}
	if r1.Render() != r2.Render() {
		t.Error("cached figure differs from simulated figure")
	}
}

// TestWarmCacheCrossingStudy repeats the zero-sims warm-replay check for the
// crossing study: its jobs mix physical (pangloss) and virtual (vamp)
// candidate paths, so this also proves the new engine statistics survive the
// cache's JSON round trip byte-identically.
func TestWarmCacheCrossingStudy(t *testing.T) {
	dir := t.TempDir()
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:2]
	o.Warmup = 20_000
	o.Instructions = 80_000

	cold, err := simcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = cold
	r1, err := Crossing(o)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Misses == 0 {
		t.Fatalf("cold run executed no sims: %+v", s)
	}

	warm, err := simcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = warm
	r2, err := Crossing(o)
	if err != nil {
		t.Fatal(err)
	}
	s := warm.Stats()
	if s.Misses != 0 {
		t.Errorf("warm run executed %d sims, want 0", s.Misses)
	}
	if r1.Render() != r2.Render() {
		t.Error("cached crossing study differs from simulated study")
	}
}

// TestCachedBatchMatchesUncached: results served through the cache must be
// indistinguishable from direct simulation, including single-flight-shared
// duplicates within one batch.
func TestCachedBatchMatchesUncached(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:2]
	o.Warmup = 20_000
	o.Instructions = 80_000
	jobs := detJobs(t, o)
	// Duplicate the whole batch so the single-flight path is exercised.
	jobs = append(jobs, jobs...)

	direct, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	store, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = store
	cached, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	db, cb := mustJSON(t, direct), mustJSON(t, cached)
	if !bytes.Equal(db, cb) {
		t.Errorf("cached batch differs:\ndirect %s\ncached %s", db, cb)
	}
	s := store.Stats()
	if s.Misses > uint64(len(jobs)/2) {
		t.Errorf("duplicates were not de-duplicated: %+v", s)
	}
	if s.Hits+s.Shared == 0 {
		t.Errorf("no hits on duplicated jobs: %+v", s)
	}
	// The on-disk entries round-trip through JSON exactly.
	for i, j := range jobs[:3] {
		key := simcache.Key(o.Config, j.Spec, j.Workload, o.runOpt())
		got, ok := store.Get(key)
		if !ok {
			t.Fatalf("job %d not stored", i)
		}
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, direct[i])) {
			t.Errorf("job %d stored entry differs from direct result", i)
		}
	}
}

// TestRunBatchJoinsAllErrors: when several workers fail, every error must
// surface, not just the first.
func TestRunBatchJoinsAllErrors(t *testing.T) {
	o := tinyOptions(t)
	o.Warmup = 5_000
	o.Instructions = 10_000
	w := o.Workloads[0]
	jobs := []Job{
		{Workload: w, Spec: sim.PrefSpec{Base: "spp"}},
		{Workload: w, Spec: sim.PrefSpec{Base: "bogus-alpha"}},
		{Workload: w, Spec: sim.PrefSpec{Base: "spp"}},
		{Workload: w, Spec: sim.PrefSpec{Base: "bogus-beta"}},
	}
	_, err := runBatch(o, jobs)
	if err == nil {
		t.Fatal("failing jobs produced no error")
	}
	for _, want := range []string{"bogus-alpha", "bogus-beta"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	// The same holds on the cached path, and errors must not be cached.
	store, serr := simcache.New(t.TempDir())
	if serr != nil {
		t.Fatal(serr)
	}
	o.Cache = store
	for run := 0; run < 2; run++ {
		if _, err := runBatch(o, jobs); err == nil ||
			!strings.Contains(err.Error(), "bogus-alpha") ||
			!strings.Contains(err.Error(), "bogus-beta") {
			t.Errorf("cached run %d: joined error = %v", run, err)
		}
	}
}

// TestOptionsRunOptStable guards the cache contract: runOpt derivation must
// only depend on the option fields folded into the key.
func TestOptionsRunOptStable(t *testing.T) {
	o := DefaultOptions()
	a, err := json.Marshal(o.runOpt())
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 1 // parallelism must not leak into the sim inputs
	o.Label = "x"
	b, err := json.Marshal(o.runOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("runOpt depends on non-simulation options: %s vs %s", a, b)
	}
}

// TestTelemetryFilePerJob: the ablation runs each spec on each workload under
// four machine configurations, and every simulated job writes its own
// telemetry series: one file per cache miss, none overwritten.
func TestTelemetryFilePerJob(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[1:3]
	o.Warmup = 5_000
	o.Instructions = 20_000
	store, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = store
	o.TelemetryDir = t.TempDir()
	if _, err := Run("ablation", o); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(o.TelemetryDir, "ablation", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	// Two specs on two workloads: more jobs than (workload, spec) pairs.
	if st.Misses <= 4 || uint64(len(files)) != st.Misses {
		t.Errorf("%d simulated jobs wrote %d telemetry files, want one each", st.Misses, len(files))
	}
}
