// Package svc holds live code reached in ways a call-only graph misses,
// next to one seeded unreachable function, method and type.
package svc

import (
	"net/http"
	"sort"
)

// Server is reached from main.
type Server struct{ hits int }

// New is called from main and from the root package's API.
func New() *Server { return &Server{} }

// Handle is registered as an HTTP handler through a method value.
func (s *Server) Handle(w http.ResponseWriter, r *http.Request) {
	s.hits++
	sw := &statusWriter{ResponseWriter: w}
	sw.WriteHeader(http.StatusNoContent)
}

// Reset is a method nothing calls.
func (s *Server) Reset() { s.hits = 0 } // want:deadcode

// statusWriter's WriteHeader implements http.ResponseWriter; only the
// standard library would call it through the interface.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Level's String is called by fmt through fmt.Stringer.
type Level int

func (l Level) String() string { return [...]string{"low", "high"}[l] }

// Info is a package-level var: its initializer is a root, and fmt
// prints it through String.
var Info = Level(1)

// Every runs fn, the way a simulator callback is invoked later.
func Every(fn func()) { fn() }

// byValue's Len, Less and Swap are called by sort through
// sort.Interface.
type byValue []float64

func (b byValue) Len() int           { return len(b) }
func (b byValue) Less(i, j int) bool { return b[i] < b[j] }
func (b byValue) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Median is reached only from a closure passed as a callback.
func Median(xs []float64) float64 {
	sort.Sort(byValue(xs))
	return xs[len(xs)/2]
}

// Sink is implemented by fileSink, which only an assertion names.
type Sink interface{ Flush() error }

type fileSink struct{}

func (fileSink) Flush() error { return nil }

var _ Sink = (*fileSink)(nil)

// unusedHelper is a function nothing calls.
func unusedHelper() int { return 42 } // want:deadcode

// orphan is a type nothing names; its method goes with it.
type orphan struct{} // want:deadcode

func (orphan) Touch() {}
