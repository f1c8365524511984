package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// digestPath is the committed full-stats digest golden.
var digestPath = filepath.Join("testdata", "stats_digest.txt")

// digestJobs is the digest matrix: every quick workload under no prefetching
// and under every extended base plus nextline, each with PSA and PSA-SD, plus
// one L1 IPCP++ row.
func digestJobs(t *testing.T, ws []trace.Workload) []Job {
	var jobs []Job
	bases := append(sim.ExtendedBaseNames(), "nextline")
	for _, w := range ws {
		jobs = append(jobs, Job{Workload: w, Spec: sim.PrefSpec{Base: "none"}})
		for _, b := range bases {
			jobs = append(jobs,
				Job{Workload: w, Spec: sim.PrefSpec{Base: b, Variant: core.PSA}},
				Job{Workload: w, Spec: sim.PrefSpec{Base: b, Variant: core.PSASD}},
			)
		}
	}
	soplex, err := trace.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	return append(jobs, Job{Workload: soplex, Spec: sim.PrefSpec{Base: "spp", Variant: core.PSA2MB, L1: sim.L1IPCPPP}})
}

// digestLine is one golden line: the job's label and the SHA-256 of its
// JSON-encoded result.
func digestLine(t *testing.T, label string, v any) string {
	sum := sha256.Sum256(mustJSON(t, v))
	return label + " " + hex.EncodeToString(sum[:])
}

// TestGoldenStatsDigest pins every statistic a simulation reports — each
// cache.Stats, core.Stats and dram.Stats field, the TLB and walk counters,
// cycles and the 2MB-fraction samples — for the quick workloads across every
// prefetcher family, and for one 4-core mix. A line per job (the SHA-256 of
// its JSON-encoded sim.Result or sim.MultiResult) means a drift names the job
// that moved, and counters the figures never render (proposal counts, drop
// reasons, walk counts) are held as tightly as the figures themselves.
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenStatsDigest(t *testing.T) {
	o := tinyOptions(t)
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Seed = 1
	o.Parallelism = runtime.GOMAXPROCS(0)
	jobs := digestJobs(t, o.Workloads)
	results, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, r := range results {
		lines = append(lines, digestLine(t, jobs[i].Workload.Name+"/"+jobs[i].Spec.String(), r))
	}

	mixNames := []string{"libquantum", "soplex", "pr.road", "mlpack_cf"}
	mix, err := WorkloadsByName(mixNames)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.Config
	cfg.DRAM.Channels = 2
	spec := sim.PrefSpec{Base: "spp", Variant: core.PSA}
	mr, err := sim.RunMulti(cfg, spec, mix, o.runOpt())
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, digestLine(t, "mix:"+strings.Join(mixNames, "+")+"/"+spec.String(), mr))
	got := strings.Join(lines, "\n") + "\n"

	if *update {
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d jobs)", digestPath, len(lines))
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the digest golden)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("digest has %d jobs, golden %d (regenerate with -update if the matrix changed)",
			len(lines), len(wantLines))
	}
	var drifted []string
	for i := range lines {
		if lines[i] != wantLines[i] {
			drifted = append(drifted, fmt.Sprintf("  got  %s\n  want %s", lines[i], wantLines[i]))
		}
	}
	if len(drifted) > 0 {
		t.Errorf("%d of %d jobs drifted from %s:\n%s\n"+
			"(intentional? regenerate with: go test ./internal/experiments -run TestGolden -update)",
			len(drifted), len(lines), digestPath, strings.Join(drifted, "\n"))
	}
}
