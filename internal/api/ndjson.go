package api

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// ndjsonWriter streams a sequence of JSON values as NDJSON, flushing
// after every line so long responses (event traces, ingest decision
// streams) reach the client incrementally instead of buffering in
// memory the way writeJSON does.
//
// Each value is marshalled before any of its bytes touch the wire, so a
// mid-stream encode failure (say, a NaN in a float field) never leaves
// a torn line: the stream stays line-wise well formed, ending with a
// parseable {"error": ...} trailer instead.
type ndjsonWriter struct {
	w       http.ResponseWriter
	flush   http.Flusher
	started bool
	failed  bool
}

// newNDJSONWriter wraps a ResponseWriter. Headers are sent lazily on
// the first line, so callers can still fall back to a plain error
// response if the very first value fails to encode.
func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	flush, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flush: flush}
}

func (n *ndjsonWriter) start() {
	if n.started {
		return
	}
	n.started = true
	n.w.Header().Set("Content-Type", "application/x-ndjson")
	n.w.WriteHeader(http.StatusOK)
}

// Encode writes one value as one NDJSON line. On an encode error the
// stream is terminated with an error trailer and subsequent calls are
// no-ops; the error is returned so the caller can stop producing.
func (n *ndjsonWriter) Encode(v any) error {
	if n.failed {
		return errStreamClosed
	}
	data, err := json.Marshal(v)
	if err != nil {
		n.fail(http.StatusInternalServerError, "encode: "+err.Error())
		return err
	}
	n.start()
	data = append(data, '\n')
	if _, err := n.w.Write(data); err != nil {
		// Client went away; stop producing but skip the trailer.
		n.failed = true
		return err
	}
	if n.flush != nil {
		n.flush.Flush()
	}
	return nil
}

// fail emits the well-formed error trailer line, or, when nothing has
// streamed yet, a plain error response with the given status.
func (n *ndjsonWriter) fail(status int, msg string) {
	if n.failed {
		return
	}
	n.failed = true
	if !n.started {
		writeJSON(n.w, status, errorBody{Error: msg})
		return
	}
	line := `{"error":` + strconv.Quote(msg) + "}\n"
	if _, err := n.w.Write([]byte(line)); err != nil {
		_ = err
	}
	if n.flush != nil {
		n.flush.Flush()
	}
}

var errStreamClosed = errStream{}

type errStream struct{}

func (errStream) Error() string { return "ndjson: stream closed after error" }
