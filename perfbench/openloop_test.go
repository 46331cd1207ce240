package main

import (
	"testing"
	"time"
)

func TestScheduleSpacing(t *testing.T) {
	got := schedule(time.Second, 4, 3)
	want := []time.Duration{time.Second, 1250 * time.Millisecond, 1500 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

func TestTimingAccounting(t *testing.T) {
	tm := timing{Due: 10 * time.Millisecond, Dispatched: 11 * time.Millisecond, Sent: 30 * time.Millisecond, Done: 45 * time.Millisecond}
	if tm.latency() != 35*time.Millisecond {
		t.Errorf("latency %v, want 35ms: measured from the due time, not the send", tm.latency())
	}
	if tm.late() != time.Millisecond {
		t.Errorf("late %v, want 1ms: only the generator's own delay", tm.late())
	}
}

// A stalled server delays every request due during the stall: with one
// connection and 20ms per request arriving every 5ms, the backlog grows
// and is charged to latency, while the generator stays on schedule.
func TestOpenLoopChargesBacklogToLatency(t *testing.T) {
	const n, service, gap = 6, 20 * time.Millisecond, 5 * time.Millisecond
	due := schedule(0, float64(time.Second/gap), n)
	tms := openLoop(due, 1, func(int) { time.Sleep(service) })
	for i, tm := range tms {
		if tm.Due != due[i] {
			t.Fatalf("request %d due %v, want %v", i, tm.Due, due[i])
		}
		if tm.Dispatched < tm.Due || tm.Sent < tm.Dispatched || tm.Done < tm.Sent+service {
			t.Errorf("request %d out of order: %+v", i, tm)
		}
		if backlog := time.Duration(i+1)*service - time.Duration(i)*gap; tm.latency() < backlog {
			t.Errorf("request %d latency %v, want at least the %v backlog", i, tm.latency(), backlog)
		}
		if tm.late() > 15*time.Millisecond {
			t.Errorf("request %d: generator %v late; it must not wait for connections", i, tm.late())
		}
	}
}

// A closed loop keeps every connection busy until the time is up and
// charges each request only its own service time.
func TestClosedLoopBackToBack(t *testing.T) {
	const service = 10 * time.Millisecond
	tms := closedLoop(1000, 2, 55*time.Millisecond, func(int) { time.Sleep(service) })
	if len(tms) < 8 || len(tms) > 14 {
		t.Fatalf("%d requests in 55ms on 2 connections of 10ms each, want about 12", len(tms))
	}
	for i, tm := range tms {
		if tm.latency() < service || tm.latency() > 5*service || tm.late() != 0 {
			t.Errorf("request %d: latency %v late %v", i, tm.latency(), tm.late())
		}
	}
	if got := closedLoop(3, 2, time.Second, func(int) {}); len(got) != 3 {
		t.Errorf("closed loop over 3 requests returned %d timings", len(got))
	}
}
