package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the sender waits or a request takes
// time, so the test controls every instant.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) waitUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// A 50 ms server stall on one request delays the requests due during
// it; open-loop accounting must charge that wait to each of them, from
// its due time, instead of timing from when the sender got to it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const n = 100
	const gap = time.Millisecond
	const service = 100 * time.Microsecond
	const stall = 50 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	clk := &fakeClock{}
	lat, lag := openLoop(clk, due, func(i int) {
		clk.t += service
		if i == 10 {
			clk.t += stall
		}
	})

	for i := 0; i < 10; i++ {
		if lat[i] != service || lag[i] != 0 {
			t.Fatalf("request %d before the stall: latency %v lag %v, want %v and 0", i, lat[i], lag[i], service)
		}
	}
	if want := service + stall; lat[10] != want {
		t.Errorf("stalled request latency %v, want %v", lat[10], want)
	}
	// Request 11 was due 1 ms after request 10 and could only go out
	// when the stall ended: it waited stall+service-gap before sending.
	if wantLag := stall + service - gap; lag[11] != wantLag || lat[11] != wantLag+service {
		t.Errorf("request 11: lag %v latency %v, want %v and %v", lag[11], lat[11], wantLag, wantLag+service)
	}
	// The backlog drains one service time per gap, so every request due
	// inside the stall is charged part of it, decreasing in due order.
	for i := 12; i < 60; i++ {
		if lat[i] <= service || lat[i] >= lat[i-1] {
			t.Fatalf("request %d latency %v: want above %v and below request %d's %v", i, lat[i], service, i-1, lat[i-1])
		}
	}
	if lat[n-1] != service || lag[n-1] != 0 {
		t.Errorf("last request: latency %v lag %v, want %v and 0 once the backlog drained", lat[n-1], lag[n-1], service)
	}
}
