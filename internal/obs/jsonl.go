package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL renders traces as a JSON Lines event log: one header line
// per run (`{"run":label,"events":n}`) followed by one line per event,
// in emission order. encoding/json field order follows the Event struct
// declaration, so for a given seed the bytes written are identical run
// to run. The lines stream to w through a buffer flushed at the end.
//
// Unlike the Chrome exporter, the JSONL log keeps every event field
// and every kind, and is meant for programmatic triage (jq, regression
// diffing) rather than visualization.
func WriteJSONL(w io.Writer, traces []Trace) error {
	bw := bufio.NewWriter(w)
	// Encode writes json.Marshal's bytes and a newline.
	enc := json.NewEncoder(bw)
	for _, tr := range traces {
		fmt.Fprintf(bw, `{"run":%s,"events":%d}`+"\n", mustJSON(tr.Label), len(tr.Events))
		for _, ev := range tr.Events {
			if err := enc.Encode(ev); err != nil {
				return fmt.Errorf("obs: encode event: %w", err)
			}
		}
	}
	return bw.Flush()
}

// mustJSON marshals a plain string; it cannot fail.
func mustJSON(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}
