package dtrace

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/tracecheck"
)

// twoNodeTrace simulates one request crossing two nodes: the client span on
// node-a parents a server span on node-b via its SpanContext, exactly as the
// traceparent header does in production.
func twoNodeTrace(t *testing.T) (a, b *Recorder, trace TraceID) {
	t.Helper()
	a = NewRecorder("node-a", 32)
	b = NewRecorder("node-b", 32)
	root := a.StartSpan(SpanContext{}, "batch")
	trace = root.Context().Trace
	child := a.StartSpan(root.Context(), "submit")
	remote := b.StartSpan(child.Context(), "job.run")
	remote.Annotate("job-1")
	remote.End()
	child.End()
	root.End()
	return a, b, trace
}

func TestStitchDedups(t *testing.T) {
	a, b, _ := twoNodeTrace(t)
	sa, sb := a.Snapshot(Filter{}), b.Snapshot(Filter{})
	// Fetching node-b's dump twice must not duplicate its spans.
	got := Stitch(sa, sb, sb)
	if len(got) != 3 {
		t.Fatalf("stitched %d spans, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].StartNS < got[i-1].StartNS {
			t.Fatal("stitched spans are not sorted by start time")
		}
	}
}

func TestTreeOfConnectivity(t *testing.T) {
	a, b, trace := twoNodeTrace(t)
	spans := Stitch(a.Snapshot(Filter{}), b.Snapshot(Filter{}))
	st := TreeOf(trace.String(), spans)
	if st.Spans != 3 || st.Roots != 1 || st.Orphans != 0 {
		t.Fatalf("tree = %+v, want 3 spans, 1 root, 0 orphans", st)
	}
	if !st.Connected() {
		t.Fatal("cross-node trace must stitch into one connected tree")
	}
	if len(st.Nodes) != 2 || st.Nodes[0] != "node-a" || st.Nodes[1] != "node-b" {
		t.Fatalf("nodes = %v, want [node-a node-b]", st.Nodes)
	}

	// Dropping node-b's dump breaks nothing structurally on node-a's side…
	onlyA := TreeOf(trace.String(), a.Snapshot(Filter{}))
	if !onlyA.Connected() {
		t.Fatalf("node-a's own spans form %+v, want a connected subtree", onlyA)
	}
	// …but dropping node-a's dump orphans the server span.
	onlyB := TreeOf(trace.String(), b.Snapshot(Filter{}))
	if onlyB.Orphans != 1 || onlyB.Connected() {
		t.Fatalf("node-b alone = %+v, want 1 orphan (parent lives on node-a)", onlyB)
	}
}

func TestChromeExportIsLoadable(t *testing.T) {
	a, b, trace := twoNodeTrace(t)
	// A failed span exercises the error arg.
	bad := a.StartSpan(SpanContext{Trace: trace, Span: NewSpanID(), Flags: 1}, "proxy.exec")
	bad.SetStart(time.Now().Add(-time.Millisecond))
	bad.Annotate("timeout")
	bad.Fail(errors.New("owner unreachable"))
	bad.End()

	spans := Stitch(a.Snapshot(Filter{}), b.Snapshot(Filter{}))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	events := tracecheck.ValidateChromeTrace(t, buf.Bytes())

	var procs, threads, slices int
	names := map[string]bool{}
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			args := ev["args"].(map[string]any)
			switch ev["name"] {
			case "process_name":
				procs++
				names[args["name"].(string)] = true
			case "thread_name":
				threads++
			}
		case "X":
			slices++
			args := ev["args"].(map[string]any)
			if args["trace_id"] != trace.String() {
				t.Fatalf("slice %v carries trace %v, want %s", ev["name"], args["trace_id"], trace)
			}
		}
	}
	if procs != 2 || !names["node-a"] || !names["node-b"] {
		t.Fatalf("export has %d process tracks %v, want node-a and node-b", procs, names)
	}
	if threads != 2 {
		t.Fatalf("export has %d thread lanes, want one per (node, trace) = 2", threads)
	}
	if slices != 4 {
		t.Fatalf("export has %d slices, want 4", slices)
	}
}
