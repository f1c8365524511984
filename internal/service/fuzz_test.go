package service

import (
	"bytes"
	"testing"
)

// FuzzDecodeSimRequest feeds arbitrary bytes through the daemon's submit
// decode+validate path: it must never panic, and a request that validates
// must have resolved exactly one unit per submitted job and carry run options
// the simulator accepts. This is the same code POST /v1/sims runs on
// untrusted network input.
func FuzzDecodeSimRequest(f *testing.F) {
	f.Add([]byte(`{"opt":{"Instructions":1000},"jobs":[{"workload":"libquantum","base":"spp","variant":"PSA"}]}`))
	f.Add([]byte(`{"opt":{"Instructions":1},"jobs":[{"workload":"milc"},{"workload":"mcf","base":"ppf","variant":"psa-sd","l1":"ipcp++"}]}`))
	f.Add([]byte(`{"jobs":[]}`))
	f.Add([]byte(`{"opt":{"Instructions":5},"jobs":[{"workload":"nonexistent"}]}`))
	f.Add([]byte(`{"opt":{"Instructions":5},"jobs":[{"workload":"libquantum","variant":"bogus"}]}`))
	f.Add([]byte(`{"opt":{"Instructions":5},"jobs":[{"workload":"libquantum","l1":"bogus"}]}`))
	f.Add([]byte(`{"config":{},"opt":{},"jobs":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	// Samples sizes a preallocation in the run loop: this one would panic
	// with "makeslice: cap out of range" in a job goroutine.
	f.Add([]byte(`{"opt":{"Instructions":5000,"Samples":1125899906842624},"jobs":[{"workload":"libquantum","base":"spp"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSimRequest(bytes.NewReader(data))
		if err != nil {
			return // malformed body: the handler answers 400, nothing to validate
		}
		const maxBatch = 64
		units, verr := validateSimRequest(req, maxBatch)
		if verr == nil {
			if len(units) != len(req.Jobs) {
				t.Fatalf("validated request resolved %d units for %d jobs", len(units), len(req.Jobs))
			}
			if len(units) == 0 || len(units) > maxBatch {
				t.Fatalf("validated batch size %d outside (0, %d]", len(units), maxBatch)
			}
			if req.Opt.Instructions == 0 {
				t.Fatal("validated request with zero instructions")
			}
			if err := req.Opt.Validate(); err != nil {
				t.Fatalf("validated request with bad run options: %v", err)
			}
		}
	})
}
