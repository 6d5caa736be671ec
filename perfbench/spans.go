package main

import (
	"encoding/json"
	"io"
	"time"
)

// spanLimit bounds a traced run's span log; later spans are counted as
// dropped. Most spans are live-ingest's one-per-HTTP-request spans.
const spanLimit = 250_000

// span is one timed interval of the benchmark's own calls into a layer.
type span struct {
	ID, Parent int
	Name, Cat  string
	Start, End time.Duration
}

// spanLog keeps a traced run's spans in memory until the run ends:
// workload → pass → setup/run/report and replay phases, plus one span
// per HTTP request. A nil log records nothing, so untraced runs pay one
// nil check per call site.
type spanLog struct {
	start   time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog {
	return &spanLog{start: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id, or
// 0 when the log is nil or full.
func (l *spanLog) begin(name, cat string, parent int) int {
	if l == nil {
		return 0
	}
	if len(l.spans) >= spanLimit {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Cat: cat, Start: time.Since(l.start)})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.start)
}

// selfTimes sums, per category, each span's duration minus the time
// its children cover. Children of one parent never overlap: the
// benchmark drives one call at a time.
func (l *spanLog) selfTimes() map[string]time.Duration {
	children := make([]time.Duration, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		self[s.Cat] += s.End - s.Start - children[s.ID]
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (l *spanLog) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, len(l.spans))
	for i, s := range l.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
