package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100},
	} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %g, want 2 (nearest rank, no interpolation)", got)
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestSummaryTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n           int
		tailP, tail float64
	}{
		{10000, 99.9, 9990}, // exactly 10 samples beyond p99.9
		{9999, 99, 9900},    // 9 beyond p99.9: falls back to p99
		{1000, 99, 990},
		{999, 90, 900},
		{100, 90, 90},
		{19, 0, 0}, // p90 would leave only 1 beyond: no tail
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailP != c.tailP || s.Tail != c.tail {
			t.Errorf("n=%d: got N=%d tail p%g=%g, want p%g=%g", c.n, s.N, s.TailP, s.Tail, c.tailP, c.tail)
		}
		if want := quantile(seq(c.n), 50); s.P50 != want {
			t.Errorf("n=%d: P50=%g, want %g", c.n, s.P50, want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}
