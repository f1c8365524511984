package service

import "repro/internal/sim"

// Wire types of psimd's HTTP/JSON API. The surface is deliberately small:
//
//	POST   /v1/sims             submit a batch of simulations → 202 + JobView
//	GET    /v1/jobs/{id}        job status (+ results once done)
//	GET    /v1/jobs/{id}/events SSE stream of the job's view as it changes
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus text exposition
type SimSpec struct {
	// Workload names a catalogue workload (see psim -workloads). Trace-file
	// replays cannot be submitted remotely: their identity is the file's
	// contents, which the daemon does not have.
	Workload string `json:"workload"`
	// Base is the L2 prefetcher ("none", "spp", "vldp", "ppf", "bop", ...);
	// empty means no prefetching.
	Base string `json:"base,omitempty"`
	// Variant is the page-size scheme by name ("original", "PSA", "PSA-SD",
	// ... — anything core.ParseVariant accepts). Empty means original.
	Variant string `json:"variant,omitempty"`
	// L1 optionally selects a first-level prefetcher: "nextline", "ipcp",
	// "ipcp++".
	L1 string `json:"l1,omitempty"`
}

// SimRequest is the body of POST /v1/sims: one job holding a batch of
// simulations that run on a shared machine configuration.
type SimRequest struct {
	// Config is the simulated machine; nil uses the server's default
	// (Table I).
	Config *sim.Config `json:"config,omitempty"`
	// Opt controls run length; Opt.Instructions must be positive.
	Opt sim.RunOpt `json:"opt"`
	// Jobs is the batch, at least one entry.
	Jobs []SimSpec `json:"jobs"`
	// TimeoutMS bounds the job's wall-clock execution; 0 uses the server's
	// default deadline (which may be none). The deadline propagates as a
	// context into every simulation, which stops at its next sampling
	// boundary.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle: queued → running → done | failed | canceled.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobTelemetry is an aggregate simulator-telemetry snapshot over a job's
// completed simulations so far: headline rates clients can chart live from
// the SSE stream without waiting for the full result set.
type JobTelemetry struct {
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	L1DHitRatio  float64 `json:"l1d_hit_ratio"`
	L2HitRatio   float64 `json:"l2_hit_ratio"`
	LLCHitRatio  float64 `json:"llc_hit_ratio"`
	L2MPKI       float64 `json:"l2_mpki"`
	L2Accuracy   float64 `json:"l2_accuracy"`
	L2Coverage   float64 `json:"l2_coverage"`
	// PrefIssued/PrefCross4K count L2-engine prefetches, PrefCross4K the ones
	// crossing a 4KB boundary (the paper's page-size-awareness signal);
	// CrossPageRate is their ratio.
	PrefIssued    uint64  `json:"pf_issued"`
	PrefCross4K   uint64  `json:"pf_cross4k"`
	CrossPageRate float64 `json:"pf_cross4k_rate"`
}

// JobView is the externally visible state of a job. It is also the SSE
// frame of GET /v1/jobs/{id}/events, sent without Results.
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// Total/Done/Hits/Executed count the job's simulations: Hits were served
	// from the result cache (disk or a shared in-flight computation),
	// Executed actually simulated.
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Hits     int    `json:"hits"`
	Executed int    `json:"executed"`
	Error    string `json:"error,omitempty"`
	// Telemetry aggregates the completed simulations' headline metrics; nil
	// until the first simulation finishes.
	Telemetry *JobTelemetry `json:"telemetry,omitempty"`
	// Results, in submission order, present once Status is "done".
	Results []sim.Result `json:"results,omitempty"`
}
