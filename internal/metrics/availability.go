package metrics

// Availability tallies request-level availability for one run: how
// much of the offered load completed versus was abandoned, and how
// much resilience work (requeues, retries) it took. Offered counts
// every request fed to the gateway inside the trace horizon, so
// Offered = Completed + Dropped once the run has drained.
type Availability struct {
	// Offered is the number of requests submitted to the gateway.
	Offered int `json:"offered"`
	// Completed is the number of requests whose batch finished
	// executing (whether or not it met its SLO).
	Completed int `json:"completed"`
	// Dropped is the number of requests abandoned — no capacity,
	// retry budget exhausted, or best-effort shed under fault pressure.
	Dropped int `json:"dropped"`
	// Requeued is the number of requests re-entering dispatch after
	// their batch was orphaned by a slice or node loss.
	Requeued int `json:"requeued"`
	// Retries is the number of backoff retries performed for the run's
	// batches (cold-start/dispatch failures).
	Retries int `json:"retries"`
}

// Rate is the completion availability: Completed / Offered. A run
// with no offered load reports 1 (vacuously available).
func (a Availability) Rate() float64 {
	if a.Offered <= 0 {
		return 1
	}
	return float64(a.Completed) / float64(a.Offered)
}

// DollarsPer1k normalizes spending to dollars per thousand completed
// requests — the cost axis of the procurement frontier. A run that
// completed nothing reports 0 (no unit to normalize against).
func DollarsPer1k(dollars float64, completed int) float64 {
	if completed <= 0 {
		return 0
	}
	return dollars / (float64(completed) / 1000)
}

// Goodput is the rate of SLO-compliant useful work: completed strict
// requests that met their deadline plus all completed best-effort
// requests (BE has no deadline to miss), per second of trace time.
func Goodput(r *Recorder, duration float64) float64 {
	if r == nil || duration <= 0 {
		return 0
	}
	good := 0
	if r.sk != nil {
		// All completed weight minus the strict requests that missed:
		// the streaming counters hold exactly those two terms.
		for _, k := range r.skKeys() {
			a := r.sk.aggs[k]
			good += a.weight - (a.strictW - a.strictMet)
		}
	} else {
		r.eachExact(func(_ uint32, s *row, _ *nameTable) {
			if s.Strict && s.Latency > s.SLO {
				return
			}
			good += s.Weight
		})
	}
	return float64(good) / duration
}
