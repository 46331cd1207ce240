package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// timing is one open-loop request's life, as offsets from the loop's
// start: when it was due, when the generator handed it out, when a
// connection sent it and when its response was complete.
type timing struct {
	Due, Dispatched, Sent, Done time.Duration
}

// latency is the request's time from when it was due to when it was
// answered: a stall delays every request due during it, and those
// delays count.
func (t timing) latency() time.Duration { return t.Done - t.Due }

// late is how far behind its schedule the generator itself ran.
func (t timing) late() time.Duration { return t.Dispatched - t.Due }

// schedule returns the due offsets of n requests arriving at rate per
// second, the first one at start.
func schedule(start time.Duration, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(float64(i)*float64(time.Second)/rate)
	}
	return out
}

// openLoop sends request i at due[i] whatever happened to earlier ones,
// over conns connections: do(i) performs the request. Requests due while
// every connection is busy wait, in order, for the next free one; that
// wait is part of their latency but not of the generator's lateness.
func openLoop(due []time.Duration, conns int, do func(i int)) []timing {
	out := make([]timing, len(due))
	// Sized to the number of sends, so handing out a request never
	// blocks the generator.
	work := make(chan int, len(due))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].Sent = time.Since(t0)
				do(i)
				out[i].Done = time.Since(t0)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Due = d
		out[i].Dispatched = time.Since(t0)
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// closedLoop sends requests back to back on conns connections, each
// connection sending its next request as soon as the previous one is
// answered, until d has passed or all n were sent. It returns the
// timings of the requests sent, which are requests 0 to len-1; a closed
// loop has no schedule, so each is due when it is sent.
func closedLoop(n, conns int, d time.Duration, do func(i int)) []timing {
	out := make([]timing, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sent := time.Since(t0)
				out[i] = timing{Due: sent, Dispatched: sent, Sent: sent}
				do(i)
				out[i].Done = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), n)]
}
