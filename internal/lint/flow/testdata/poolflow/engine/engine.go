// Package engine exercises the poolflow ownership rules: touching a
// pooled object after Put, double-put, closure capture after Put, and
// retention in longer-lived state at Put all fire; the sanctioned
// get-fill-put shapes stay silent.
package engine

import "fixturemod/pool"

// Job is the pooled hot object.
type Job struct {
	N    int
	Data []byte
}

// Engine owns a freelist and some longer-lived state.
type Engine struct {
	jobs   pool.Free[Job]
	cached *Job
	ring   []*Job
}

// UseAfterPut touches the object after recycling it.
func (e *Engine) UseAfterPut() {
	j := e.jobs.Get()
	j.N = 1
	e.jobs.Put(j)
	j.N = 2 // want:poolflow
}

// DoublePut recycles the same object twice; the second Put is a use of
// a pointer the list may already have handed out again.
func (e *Engine) DoublePut() {
	j := e.jobs.Get()
	e.jobs.Put(j)
	e.jobs.Put(j) // want:poolflow
}

// CaptureAfterPut closes over the object after recycling it: the
// closure runs later, when the object may belong to someone else.
func (e *Engine) CaptureAfterPut() func() int {
	j := e.jobs.Get()
	e.jobs.Put(j)
	return func() int { return j.N } // want:poolflow
}

// RetainThenPut stores the pointer in a field that outlives the call,
// then recycles the object out from under it.
func (e *Engine) RetainThenPut() {
	j := e.jobs.Get()
	e.cached = j
	e.jobs.Put(j) // want:poolflow
}

// AppendThenPut smuggles the pointer into a longer-lived container via
// append before recycling.
func (e *Engine) AppendThenPut() {
	j := e.jobs.Get()
	e.ring = append(e.ring, j)
	e.jobs.Put(j) // want:poolflow
}

// GetFillPut is the sanctioned shape: own the object from Get to Put,
// never touch it after.
func (e *Engine) GetFillPut() int {
	j := e.jobs.Get()
	j.N = 7
	n := j.N
	e.jobs.Put(j)
	return n
}

// ReuseAfterReget rebinds the identifier with a fresh Get after the
// Put: the new object is legitimately owned.
func (e *Engine) ReuseAfterReget() {
	j := e.jobs.Get()
	e.jobs.Put(j)
	j = e.jobs.Get()
	j.N = 3
	e.jobs.Put(j)
}

// DetachThenPut retains a sub-object, not the pooled pointer itself —
// the queue.Release shape: moving batch.Arrivals out before recycling
// the batch shell is fine.
func (e *Engine) DetachThenPut(bufs *[][]byte) {
	j := e.jobs.Get()
	*bufs = append(*bufs, j.Data[:0])
	j.Data = nil
	e.jobs.Put(j)
}

// LoopReuse is the steady-state hot-loop shape: each iteration owns the
// object from Get to Put.
func (e *Engine) LoopReuse(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		j := e.jobs.Get()
		j.N = i
		total += j.N
		e.jobs.Put(j)
	}
	return total
}
