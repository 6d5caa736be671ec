package main

import (
	"runtime"
	"time"
)

// clock is the open-loop sender's time source, abstracted so a test can
// inject a server stall without sleeping.
type clock interface {
	// now is the time since the phase started.
	now() time.Duration
	// waitUntil returns once now() >= t.
	waitUntil(t time.Duration)
}

// wallClock is the real clock. Go sleeps overshoot by up to a
// millisecond, four times the mean gap at 4000 req/s, so the last
// stretch before a due time is spun instead.
type wallClock struct{ start time.Time }

func newWallClock() wallClock { return wallClock{start: time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) waitUntil(t time.Duration) {
	for {
		left := t - c.now()
		switch {
		case left <= 0:
			return
		case left > 2*time.Millisecond:
			time.Sleep(left - 1500*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop sends request i at its due offset on one sequential sender
// (one connection) and never slows the schedule down to the server: a
// request due while an earlier one is still in flight goes out as soon
// as that one returns. Each latency is measured from the request's due
// time, not from when it was sent, so a server stall is charged to
// every request it delayed; lag[i] is how late request i was sent.
func openLoop(clk clock, due []time.Duration, send func(i int)) (lat, lag []time.Duration) {
	lat = make([]time.Duration, len(due))
	lag = make([]time.Duration, len(due))
	for i, d := range due {
		clk.waitUntil(d)
		lag[i] = clk.now() - d
		send(i)
		lat[i] = clk.now() - d
	}
	return lat, lag
}
