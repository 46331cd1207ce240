package env

import (
	"math"

	"parmp/internal/geom"
)

// BatchScratch holds the SoA batch queries' reusable buffers: the
// broadphase candidate list and the gather buffers the queries fall back
// to when an obstacle type has no column kernel. The zero value is ready
// to use; a scratch is not safe for concurrent use.
type BatchScratch struct {
	cand   []int32
	pa, pb geom.Vec
}

func growVec(v geom.Vec, d int) geom.Vec {
	if cap(v) < d {
		return make(geom.Vec, d)
	}
	return v[:d]
}

// gatherA copies item i of cols into the scratch's first buffer.
func (sc *BatchScratch) gatherA(cols [][]float64, i, d int) geom.Vec {
	sc.pa = growVec(sc.pa, d)
	for k := 0; k < d; k++ {
		sc.pa[k] = cols[k][i]
	}
	return sc.pa
}

// gatherB copies item i of cols into the scratch's second buffer.
func (sc *BatchScratch) gatherB(cols [][]float64, i, d int) geom.Vec {
	sc.pb = growVec(sc.pb, d)
	for k := 0; k < d; k++ {
		sc.pb[k] = cols[k][i]
	}
	return sc.pb
}

// CheckPointsSoA is the batched CheckPoint: point i is
// (cols[0][i], …, cols[d-1][i]) for i < n, with d = e.Dim(). It reports
// whether every point is inside bounds and outside every obstacle,
// along with the number of obstacle containment tests performed.
//
// Iteration is obstacle-major: one bounds sweep over all points, then
// one sweep per obstacle with the obstacle's concrete type resolved
// once per sweep instead of once per point, so the inner loops run over
// contiguous per-dimension columns with no interface dispatch. The
// broadphase culls the obstacles each run of nearby points is tested
// against (see sweepBatch).
//
// Parity contract with the scalar loop: the accept/reject outcome is
// identical to running CheckPoint over every point, and on an all-free
// batch the test count equals the sum of the scalar counts exactly
// (n × len(Obstacles)). A rejecting batch may stop at a different count
// than the point-major sweep — the same contract the fail-fast local
// planner already documents for rejected edges.
func (e *Environment) CheckPointsSoA(cols [][]float64, n int, sc *BatchScratch) (free bool, tests int) {
	if n == 0 {
		return true, 0
	}
	d := e.Dim()
	// Bounds sweep first: an out-of-bounds point costs no obstacle
	// tests, exactly as in CheckPoint.
	for k := 0; k < d; k++ {
		lo, hi := e.Bounds.Lo[k], e.Bounds.Hi[k]
		col := cols[k][:n]
		for i := 0; i < n; i++ {
			if col[i] < lo || col[i] > hi {
				return false, 0
			}
		}
	}
	return e.sweepBatch(cols, nil, n, sc)
}

// SegmentsFreeSoA is the batched SegmentFree: segment i runs from
// (acols[0][i], …) to (bcols[0][i], …) for i < n. Bounds containment of
// the endpoints is the caller's concern, as with SegmentFree. The
// sweep is obstacle-major; the parity contract matches CheckPointsSoA
// (identical outcome, test counts sum exactly on an all-free batch).
func (e *Environment) SegmentsFreeSoA(acols, bcols [][]float64, n int, sc *BatchScratch) (free bool, tests int) {
	if n == 0 {
		return true, 0
	}
	return e.sweepBatch(acols, bcols, n, sc)
}

// sweepBatch runs the batch — the n points in columns acols, or with
// bcols the segments acols[·][i] → bcols[·][i] — over its broadphase
// runs (see grid.run), each against its own candidates through
// firstHit. It returns what the full obstacle-major sweep returns: the
// first hit is the one on the lowest obstacle j, at its lowest item i,
// and counts n·j + i + 1 tests; a free batch counts n × len(Obstacles).
// A later run can only improve on a hit with a lower obstacle, so its
// limit is the best hit's obstacle. A grid without cells makes the batch
// one run over every obstacle: the full sweep, failing fast on the first
// hit.
func (e *Environment) sweepBatch(acols, bcols [][]float64, n int, sc *BatchScratch) (free bool, tests int) {
	m := len(e.Obstacles)
	bestJ, bestI := m, 0
	if g := e.broadphase(); g.res == 0 {
		bestJ, bestI = e.firstHit(g.all, m, acols, bcols, n, sc)
	} else {
		var ra, rb [gridMaxDim][]float64
		runA, runB := ra[:g.dim], rb[:g.dim]
		if bcols == nil {
			runB = nil
		}
		for i0 := 0; i0 < n; {
			i1, ids := g.run(acols, bcols, i0, n, sc)
			for k := range runA {
				runA[k] = acols[k][i0:i1]
				if runB != nil {
					runB[k] = bcols[k][i0:i1]
				}
			}
			if j, i := e.firstHit(ids, bestJ, runA, runB, i1-i0, sc); j < bestJ {
				bestJ, bestI = j, i0+i
			}
			i0 = i1
		}
	}
	if bestJ == m {
		return true, n * m
	}
	return false, n*bestJ + bestI + 1
}

// firstHit returns the lowest obstacle among ids, below limit, that one
// of the batch's n items hits, and that obstacle's first such item; it
// returns limit when none is hit. Each obstacle's concrete type is
// resolved once for the whole batch, so the column kernels run with no
// interface dispatch.
func (e *Environment) firstHit(ids []int32, limit int, acols, bcols [][]float64, n int, sc *BatchScratch) (int, int) {
	for _, id := range ids {
		j := int(id)
		if j >= limit {
			break
		}
		var hit bool
		var i int
		switch ob := e.Obstacles[j].(type) {
		case BoxObstacle:
			if bcols == nil {
				hit, i = boxContainsAny(ob.Box, acols, n)
			} else {
				hit, i = boxSegmentHitsAny(ob.Box, acols, bcols, n)
			}
		case SphereObstacle:
			if bcols == nil {
				hit, i = sphereContainsAny(ob, acols, n)
			} else {
				hit, i = sphereSegmentHitsAny(ob, acols, bcols, n)
			}
		default:
			hit, i = sc.gatherHit(ob, acols, bcols, n, e.Dim())
		}
		if hit {
			return j, i
		}
	}
	return limit, 0
}

// gatherHit is the batch kernel for obstacle types without a column
// kernel: it gathers each item into the scratch and calls the
// obstacle's own test.
func (sc *BatchScratch) gatherHit(o Obstacle, acols, bcols [][]float64, n, d int) (bool, int) {
	for i := 0; i < n; i++ {
		a := sc.gatherA(acols, i, d)
		if bcols == nil {
			if o.Contains(a) {
				return true, i
			}
		} else if o.SegmentHits(a, sc.gatherB(bcols, i, d)) {
			return true, i
		}
	}
	return false, 0
}

// boxContainsAny returns the first batch item inside b (boundary
// inclusive, mirroring AABB.Contains).
func boxContainsAny(b geom.AABB, cols [][]float64, n int) (bool, int) {
	switch len(b.Lo) {
	case 2:
		xs, ys := cols[0][:n], cols[1][:n]
		x0, x1, y0, y1 := b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1]
		for i := 0; i < n; i++ {
			if xs[i] >= x0 && xs[i] <= x1 && ys[i] >= y0 && ys[i] <= y1 {
				return true, i
			}
		}
	case 3:
		xs, ys, zs := cols[0][:n], cols[1][:n], cols[2][:n]
		x0, x1, y0, y1, z0, z1 := b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2]
		for i := 0; i < n; i++ {
			if xs[i] >= x0 && xs[i] <= x1 && ys[i] >= y0 && ys[i] <= y1 && zs[i] >= z0 && zs[i] <= z1 {
				return true, i
			}
		}
	default:
		for i := 0; i < n; i++ {
			inside := true
			for k := range b.Lo {
				if cols[k][i] < b.Lo[k] || cols[k][i] > b.Hi[k] {
					inside = false
					break
				}
			}
			if inside {
				return true, i
			}
		}
	}
	return false, 0
}

// sphereContainsAny returns the first batch item inside o, with the
// same squared-distance arithmetic as SphereObstacle.Contains.
func sphereContainsAny(o SphereObstacle, cols [][]float64, n int) (bool, int) {
	r2 := o.Radius * o.Radius
	switch len(o.Center) {
	case 2:
		xs, ys := cols[0][:n], cols[1][:n]
		cx, cy := o.Center[0], o.Center[1]
		for i := 0; i < n; i++ {
			dx := xs[i] - cx
			dy := ys[i] - cy
			if dx*dx+dy*dy <= r2 {
				return true, i
			}
		}
	case 3:
		xs, ys, zs := cols[0][:n], cols[1][:n], cols[2][:n]
		cx, cy, cz := o.Center[0], o.Center[1], o.Center[2]
		for i := 0; i < n; i++ {
			dx := xs[i] - cx
			dy := ys[i] - cy
			dz := zs[i] - cz
			if dx*dx+dy*dy+dz*dz <= r2 {
				return true, i
			}
		}
	default:
		for i := 0; i < n; i++ {
			var s float64
			for k := range o.Center {
				d := cols[k][i] - o.Center[k]
				s += d * d
			}
			if s <= r2 {
				return true, i
			}
		}
	}
	return false, 0
}

// boxSegmentHitsAny returns the first batch segment intersecting b. The
// per-segment slab test reproduces AABB.SegmentIntersects exactly
// (including its 1e-15 degenerate-axis epsilon and boundary-touching
// semantics).
func boxSegmentHitsAny(b geom.AABB, acols, bcols [][]float64, n int) (bool, int) {
	d := len(b.Lo)
	for i := 0; i < n; i++ {
		tMin, tMax := 0.0, 1.0
		hit := true
		for k := 0; k < d; k++ {
			av := acols[k][i]
			dd := bcols[k][i] - av
			if math.Abs(dd) < 1e-15 {
				if av < b.Lo[k] || av > b.Hi[k] {
					hit = false
					break
				}
				continue
			}
			t1 := (b.Lo[k] - av) / dd
			t2 := (b.Hi[k] - av) / dd
			if t1 > t2 {
				t1, t2 = t2, t1
			}
			tMin = max(tMin, t1)
			tMax = min(tMax, t2)
			if tMin > tMax {
				hit = false
				break
			}
		}
		if hit {
			return true, i
		}
	}
	return false, 0
}

// sphereSegmentHitsAny returns the first batch segment passing through
// o, with the same closest-point arithmetic as
// SphereObstacle.SegmentHits (so results agree bit for bit).
func sphereSegmentHitsAny(o SphereObstacle, acols, bcols [][]float64, n int) (bool, int) {
	d := len(o.Center)
	r2 := o.Radius * o.Radius
	for i := 0; i < n; i++ {
		var den, dot float64
		for k := 0; k < d; k++ {
			ab := bcols[k][i] - acols[k][i]
			den += ab * ab
			ca := o.Center[k] - acols[k][i]
			dot += ab * ca
		}
		t := 0.0
		if den > 0 {
			t = dot / den
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
		}
		var dist2 float64
		for k := 0; k < d; k++ {
			av := acols[k][i]
			closest := av + t*(bcols[k][i]-av)
			dc := closest - o.Center[k]
			dist2 += dc * dc
		}
		if dist2 <= r2 {
			return true, i
		}
	}
	return false, 0
}
