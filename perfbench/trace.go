package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parmp/internal/sched"
	"parmp/internal/work"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call: its name, interval, the span that caused it and the
// request it served. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its ID (0 when t is nil).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	id := t.reserve()
	t.recordAs(id, name, parent, req, start, end)
	return id
}

// reserve hands out a span ID before the span ends, so children that
// finish first can name it as their parent; recordAs stores it later.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// recordAs stores a span under an ID obtained from reserve.
func (t *tracer) recordAs(id int64, name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// durations returns the durations in milliseconds of every span named
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that its children's spans cover
// (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered measures the union of the intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfMS returns the self times in milliseconds of every span named
// name, in recording order.
func (t *tracer) selfMS(name string) []float64 {
	self := selfTimes(t.spans)
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}

// write saves the spans, each with its self time, as JSON.
func (t *tracer) write(path string) error {
	self := selfTimes(t.spans)
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, self[s.ID]}
	}
	b, err := json.Marshal(map[string]any{"spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedRuntime wraps the virtual-time scheduler runtime handed to the
// planners through Options.Runtime and records each phase replay as a
// "dist.Run" span under the caller-set parent. It only observes: the
// wrapped runtime's report is returned untouched, so results stay
// bit-identical to an unwrapped run.
type timedRuntime struct {
	inner  sched.Runtime
	tr     *tracer
	parent atomic.Int64
}

func (r *timedRuntime) Run(cfg sched.Config, queues [][]work.Task) sched.Report {
	start := time.Now()
	rep := r.inner.Run(cfg, queues)
	r.tr.record("dist.Run", r.parent.Load(), 0, start, time.Now())
	return rep
}
