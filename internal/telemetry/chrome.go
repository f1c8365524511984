package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeEvent is one trace_event record; see the Chrome Trace Event Format.
// Exporters name each process and each (PID, TID) lane with ChromeMeta.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeMeta returns the metadata record naming a process ("process_name")
// or a lane ("thread_name").
func ChromeMeta(record string, pid, tid int, name string) ChromeEvent {
	return ChromeEvent{Name: record, Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// WriteChrome writes events as a Chrome trace_event JSON array (the form
// chrome://tracing and Perfetto load directly): metadata records first in
// their given order, then every other event by timestamp, ties in their
// given order. It sorts events in place.
func WriteChrome(w io.Writer, events []ChromeEvent) error {
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Phase == "M", events[j].Phase == "M"
		if mi || mj {
			return mi && !mj
		}
		return events[i].TS < events[j].TS
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
