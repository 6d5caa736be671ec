// Queueing-delay prediction for the live control plane's admission
// controller: a Little's-law estimate seeded by EWMA-smoothed
// observations of completed requests. Everything here is pure float
// arithmetic over values the caller feeds in deterministic order, so a
// replayed ingest log reproduces every prediction bit-for-bit.
package metrics

import "protean/internal/ewma"

// DelayPredictor estimates the queueing delay a newly admitted request
// would see, from the current backlog and EWMA-smoothed service-time
// observations. The zero value is not usable; use NewDelayPredictor.
type DelayPredictor struct {
	queue *ewma.EWMA // observed gateway+slice queueing delay per request
	exec  *ewma.EWMA // observed execution time per request (latency - queue)
}

// DefaultPredictorAlpha is the smoothing factor for the predictor's
// EWMAs: recent completions dominate, but a single straggler cannot
// swing admission.
const DefaultPredictorAlpha = 0.2

// NewDelayPredictor returns a predictor with the default smoothing.
func NewDelayPredictor() *DelayPredictor {
	return &DelayPredictor{
		queue: ewma.MustNew(DefaultPredictorAlpha),
		exec:  ewma.MustNew(DefaultPredictorAlpha),
	}
}

// Observe folds one completed request into the predictor: queueDelay is
// the time it spent waiting (gateway + slice queue), execSeconds the
// time it spent executing (including cold start and interference).
// Negative inputs are clamped to zero.
func (p *DelayPredictor) Observe(queueDelay, execSeconds float64) {
	if queueDelay < 0 {
		queueDelay = 0
	}
	if execSeconds < 0 {
		execSeconds = 0
	}
	p.queue.Observe(queueDelay)
	p.exec.Observe(execSeconds)
}

// Predict estimates the queueing delay of the next admitted request:
// the EWMA of recently observed queueing delay plus the backlog drained
// at the observed per-request service rate across servers (Little's
// law). backlog is the number of queued-but-unfinished requests,
// servers the number of worker nodes draining it.
func (p *DelayPredictor) Predict(backlog, servers int) float64 {
	if servers < 1 {
		servers = 1
	}
	q, errQ := p.queue.Predict()
	e, errE := p.exec.Predict()
	if errQ != nil || errE != nil {
		return 0
	}
	if backlog < 0 {
		backlog = 0
	}
	return q + float64(backlog)*e/float64(servers)
}
