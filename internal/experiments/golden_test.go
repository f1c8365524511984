package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden figure and stats-digest files")

// goldenOptions pins every input that feeds a figure: scale, seed,
// workloads. Parallelism is deliberately above 1 — determinism across worker
// counts is guaranteed by TestRunBatchDeterminism, so goldens double as a
// regression check on that guarantee.
func goldenOptions(t *testing.T) Options {
	t.Helper()
	o := DefaultOptions()
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Seed = 1
	o.Parallelism = 4
	ws, err := WorkloadsByName([]string{"libquantum", "milc", "soplex", "pr.road"})
	if err != nil {
		t.Fatal(err)
	}
	o.Workloads = ws
	return o
}

// TestGoldenFigures snapshot-tests Render() for Figure 2, Figure 8, the
// crossing study, and Table 1 at a tiny fixed-seed scale, so a figure-shape
// regression (changed metric derivation, broken aggregation, perturbed
// simulation) fails CI instead of waiting for someone to eyeball results/.
func TestGoldenFigures(t *testing.T) {
	for _, name := range []string{"fig2", "fig8", "crossing", "table1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := Run(name, goldenOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			got := r.Render()
			path := filepath.Join("testdata", "golden_"+name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create goldens)", err)
			}
			if got != string(want) {
				t.Errorf("%s render drifted from golden.\n--- got ---\n%s--- want ---\n%s"+
					"(intentional? regenerate with: go test ./internal/experiments -run TestGolden -update)",
					name, got, want)
			}
		})
	}
}
