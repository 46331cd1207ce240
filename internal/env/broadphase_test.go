package env

import (
	"math"
	"sync"
	"testing"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// The brute-force references: the full obstacle sweeps the broadphase
// must reproduce, (free, tests) for (free, tests).

func sweepPoint(e *Environment, p geom.Vec) (bool, int) {
	if !e.Bounds.Contains(p) {
		return false, 0
	}
	for j, o := range e.Obstacles {
		if o.Contains(p) {
			return false, j + 1
		}
	}
	return true, len(e.Obstacles)
}

func sweepSegment(e *Environment, a, b geom.Vec) (bool, int) {
	for j, o := range e.Obstacles {
		if o.SegmentHits(a, b) {
			return false, j + 1
		}
	}
	return true, len(e.Obstacles)
}

// sweepPoints is the obstacle-major batch sweep: the bounds first, then
// every point against obstacle 0, 1, ….
func sweepPoints(e *Environment, pts []geom.Vec) (bool, int) {
	for _, p := range pts {
		if !e.Bounds.Contains(p) {
			return false, 0
		}
	}
	for j, o := range e.Obstacles {
		for i, p := range pts {
			if o.Contains(p) {
				return false, len(pts)*j + i + 1
			}
		}
	}
	return true, len(pts) * len(e.Obstacles)
}

func sweepSegments(e *Environment, as, bs []geom.Vec) (bool, int) {
	for j, o := range e.Obstacles {
		for i := range as {
			if o.SegmentHits(as[i], bs[i]) {
				return false, len(as)*j + i + 1
			}
		}
	}
	return true, len(as) * len(e.Obstacles)
}

// parityWorld generates a d-dimensional world of n obstacles: mostly
// boxes, some spheres and, in 2D, a polygon (the batch queries' gather
// path). Bounds are offset and scaled; box faces often sit exactly on
// grid cell lines, some boxes are thin or stick out of the bounds.
func parityWorld(r *rng.Stream, d, n int) *Environment {
	lo := make(geom.Vec, d)
	hi := make(geom.Vec, d)
	scale := []float64{1, 10, 0.1}[r.Intn(3)]
	for k := range lo {
		lo[k] = scale * r.Range(-1, 1)
		hi[k] = lo[k] + scale*r.Range(0.5, 2)
	}
	e := &Environment{Name: "parity", Bounds: geom.NewAABB(lo, hi)}
	res := max(1, int(math.Floor(math.Pow(float64(n), 1/float64(d)))))
	for j := 0; j < n; j++ {
		switch {
		case d == 2 && j == n/2:
			c := parityPoint(r, e, res)
			w := scale * 0.1
			if p, ok := NewConvexPolygon([]geom.Vec{
				geom.V(c[0]-w, c[1]-w), geom.V(c[0]+w, c[1]-w/2), geom.V(c[0], c[1]+w),
			}); ok {
				e.Obstacles = append(e.Obstacles, p)
			}
		case r.Intn(5) == 0:
			c := parityPoint(r, e, res)
			e.Obstacles = append(e.Obstacles, SphereObstacle{Center: c, Radius: scale * r.Range(0.001, 0.2)})
		default:
			blo := parityPoint(r, e, res)
			bhi := make(geom.Vec, d)
			for k := range bhi {
				bhi[k] = blo[k] + (hi[k]-lo[k])*r.Range(0, 0.3)/float64(res)
				if r.Intn(8) == 0 {
					bhi[k] = blo[k] // thin wall
				}
			}
			e.Obstacles = append(e.Obstacles, BoxObstacle{Box: geom.NewAABB(blo, bhi)})
		}
	}
	return e
}

// parityPoint draws a point around e's bounds: uniform with overshoot,
// or with coordinates snapped to the lines of a res-cell grid.
func parityPoint(r *rng.Stream, e *Environment, res int) geom.Vec {
	p := make(geom.Vec, e.Dim())
	for k := range p {
		lo, hi := e.Bounds.Lo[k], e.Bounds.Hi[k]
		if r.Intn(3) == 0 {
			p[k] = lo + (hi-lo)*float64(r.Intn(res+1))/float64(res)
		} else {
			p[k] = r.Range(lo-0.1*(hi-lo), hi+0.1*(hi-lo))
		}
	}
	return p
}

// paritySegment draws a segment: short or long, with a degenerate axis,
// or ending a few ulps short of (or on) an obstacle corner.
func paritySegment(r *rng.Stream, e *Environment, res int) (geom.Vec, geom.Vec) {
	a := parityPoint(r, e, res)
	b := a.Clone()
	span := e.Bounds.Hi[0] - e.Bounds.Lo[0]
	switch r.Intn(4) {
	case 0: // long
		b = parityPoint(r, e, res)
	case 1: // ends at an obstacle corner, nudged by a few ulps
		if len(e.Obstacles) > 0 {
			c := e.Obstacles[r.Intn(len(e.Obstacles))].Bounds().Lo
			for k := range b {
				b[k] = c[k]
				for u := r.Intn(4); u > 0; u-- {
					b[k] = math.Nextafter(b[k], math.Inf(-1))
				}
			}
		}
	default: // short
		for k := range b {
			b[k] += span * r.Range(-0.1, 0.1)
		}
	}
	if r.Intn(4) == 0 { // degenerate axis
		k := r.Intn(len(b))
		b[k] = a[k] + []float64{0, 1e-16, -1e-16}[r.Intn(3)]
	}
	return a, b
}

// checkParity runs every entry point over generated queries and
// requires the sweep's (free, tests) exactly.
func checkParity(t *testing.T, r *rng.Stream, e *Environment, queries int) {
	t.Helper()
	d, n := e.Dim(), len(e.Obstacles)
	res := max(1, int(math.Floor(math.Pow(float64(n), 1/float64(d)))))
	var sc BatchScratch
	for q := 0; q < queries; q++ {
		p := parityPoint(r, e, res)
		gf, gt := e.CheckPoint(p)
		if wf, wt := sweepPoint(e, p); gf != wf || gt != wt {
			t.Fatalf("CheckPoint(%v) = (%t, %d), sweep (%t, %d)", p, gf, gt, wf, wt)
		}
		a, b := paritySegment(r, e, res)
		gf, gt = e.SegmentFree(a, b)
		if wf, wt := sweepSegment(e, a, b); gf != wf || gt != wt {
			t.Fatalf("SegmentFree(%v, %v) = (%t, %d), sweep (%t, %d)", a, b, gf, gt, wf, wt)
		}

		// Batches: a run along a line (as the local planner builds
		// them), scattered points, or both, in or around the bounds.
		m := 1 + r.Intn(40)
		pts := make([]geom.Vec, m)
		as := make([]geom.Vec, m)
		bs := make([]geom.Vec, m)
		u, v := parityPoint(r, e, res), parityPoint(r, e, res)
		inBounds := r.Intn(2) == 0
		for i := range pts {
			if r.Intn(3) == 0 {
				pts[i] = parityPoint(r, e, res)
			} else {
				pts[i] = u.Lerp(v, float64(i)/float64(m))
			}
			if inBounds {
				pts[i] = e.Bounds.Clamp(pts[i])
			}
			as[i], bs[i] = paritySegment(r, e, res)
			if r.Intn(2) == 0 {
				as[i], bs[i] = u.Lerp(v, float64(i)/float64(m)), u.Lerp(v, float64(i+1)/float64(m))
			}
		}
		gf, gt = e.CheckPointsSoA(toCols(pts, d), m, &sc)
		if wf, wt := sweepPoints(e, pts); gf != wf || gt != wt {
			t.Fatalf("CheckPointsSoA(%v) = (%t, %d), sweep (%t, %d)", pts, gf, gt, wf, wt)
		}
		gf, gt = e.SegmentsFreeSoA(toCols(as, d), toCols(bs, d), m, &sc)
		if wf, wt := sweepSegments(e, as, bs); gf != wf || gt != wt {
			t.Fatalf("SegmentsFreeSoA(%v, %v) = (%t, %d), sweep (%t, %d)", as, bs, gf, gt, wf, wt)
		}
	}
}

// FuzzBroadphaseParity checks the broadphase against the brute-force
// sweeps on generated 2D and 3D worlds of 0–300 obstacles, then again
// after each kind of mutation. Plain `go test` runs the seed corpus.
func FuzzBroadphaseParity(f *testing.F) {
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed, uint16(seed*37%301))
	}
	f.Add(uint64(99), uint16(300))
	f.Add(uint64(100), uint16(216))
	f.Fuzz(func(t *testing.T, seed uint64, count uint16) {
		r := rng.New(seed)
		d := 2 + int(seed%2)
		e := parityWorld(r, d, int(count%301))
		checkParity(t, r, e, 60)

		extra := parityWorld(r, d, 4)
		if len(extra.Obstacles) > 0 {
			if _, err := e.AddObstacle(extra.Obstacles[0]); err == nil {
				checkParity(t, r, e, 30)
			}
		}
		if len(e.Obstacles) > 0 {
			if _, err := e.RemoveObstacle(r.Intn(len(e.Obstacles))); err != nil {
				t.Fatal(err)
			}
			checkParity(t, r, e, 30)
		}
		if len(e.Obstacles) > 0 {
			dv := make(geom.Vec, d)
			for k := range dv {
				dv[k] = 0.1 * (e.Bounds.Hi[k] - e.Bounds.Lo[k]) * r.Range(-1, 1)
			}
			if _, err := e.MoveObstacle(r.Intn(len(e.Obstacles)), dv); err == nil {
				checkParity(t, r, e, 30)
			}
		}
	})
}

// TestBroadphaseKeepsRoundingHits pins the conservative cull against
// the kernels' own arithmetic: a segment ending one ulp short of a box
// face that lies on a grid cell line sits in the cell before the box,
// yet the slab test reports a hit at t = 1. The padded binning must
// still make the box a candidate.
func TestBroadphaseKeepsRoundingHits(t *testing.T) {
	e := &Environment{Name: "lattice", Bounds: geom.Box3(0, 0, 0, 1, 1, 1)}
	for i := 0; i < 27; i++ {
		c := geom.V(float64(i%3), float64(i/3%3), float64(i/9))
		lo := c.Scale(1.0 / 3).Add(geom.V(0.05, 0.05, 0.05))
		e.Obstacles = append(e.Obstacles, BoxObstacle{Box: geom.NewAABB(lo, lo.Add(geom.V(0.1, 0.1, 0.1)))})
	}
	face := 2.0 / 3
	box := geom.NewAABB(geom.V(face, 0.4, 0.4), geom.V(0.9, 0.6, 0.6))
	if _, err := e.AddObstacle(BoxObstacle{Box: box}); err != nil {
		t.Fatal(err)
	}
	g := e.broadphase()
	end := math.Nextafter(face, 0)
	if c, _ := g.cellOf(0, end); c != 1 {
		t.Fatalf("segment end %.17g in cell %d, want 1", end, c)
	}
	r := rng.New(3)
	found := false
	for try := 0; try < 100000 && !found; try++ {
		// The start lies far enough from the face that b−a and face−a
		// round alike (nearer, both differences are exact).
		a := geom.V(r.Range(0, 0.3), r.Float64(), r.Float64())
		b := geom.V(end, r.Range(0.4, 0.6), r.Range(0.4, 0.6))
		wf, wt := sweepSegment(e, a, b)
		if wf || wt != len(e.Obstacles) {
			continue // missed the face box, or hit a lattice box first
		}
		found = true
		gf, gt := e.SegmentFree(a, b)
		if gf != wf || gt != wt {
			t.Fatalf("SegmentFree(%v, %v) = (%t, %d), sweep (%t, %d)", a, b, gf, gt, wf, wt)
		}
		var sc BatchScratch
		gf, gt = e.SegmentsFreeSoA(toCols([]geom.Vec{a}, 3), toCols([]geom.Vec{b}, 3), 1, &sc)
		if wf, wt := sweepSegments(e, []geom.Vec{a}, []geom.Vec{b}); gf != wf || gt != wt {
			t.Fatalf("SegmentsFreeSoA(%v, %v) = (%t, %d), sweep (%t, %d)", a, b, gf, gt, wf, wt)
		}
	}
	if !found {
		t.Fatal("no segment ending short of the face hit it; the case is not exercised")
	}
}

// TestBroadphaseOneCellSweeps checks the one-cell fallback: worlds with
// fewer than 2^d obstacles get no grid cells, so every query sweeps.
func TestBroadphaseOneCellSweeps(t *testing.T) {
	for _, e := range []*Environment{MedCube(), Walls(6, 0.1), Mixed()} {
		g := e.broadphase()
		if want := len(e.Obstacles) >= 8; (g.res != 0) != want {
			t.Errorf("%s (%d obstacles): grid res %d, want cells=%t", e.Name, len(e.Obstacles), g.res, want)
		}
	}
	if g := Mixed().broadphase(); g.res != 6 {
		t.Errorf("mixed grid res %d, want 6 (216 boxes on a 6×6×6 lattice)", g.res)
	}
}

// TestBroadphaseEpochs checks the grid belongs to one epoch: every
// mutation drops it, and a clone never shares it with its original.
func TestBroadphaseEpochs(t *testing.T) {
	e := Mixed()
	g := e.broadphase()
	if e.broadphase() != g {
		t.Fatal("broadphase rebuilt without a mutation")
	}
	c := e.Clone()
	if c.broad.Load() != nil {
		t.Fatal("clone shares its original's broadphase")
	}
	mutations := []func() (Delta, error){
		func() (Delta, error) { return e.AddObstacle(BoxObstacle{Box: geom.Box3(0.4, 0.4, 0.4, 0.5, 0.5, 0.5)}) },
		func() (Delta, error) { return e.MoveObstacle(0, geom.V(0.01, 0, 0)) },
		func() (Delta, error) { return e.RemoveObstacle(3) },
	}
	for i, mutate := range mutations {
		e.broadphase()
		if _, err := mutate(); err != nil {
			t.Fatal(err)
		}
		if e.broad.Load() != nil {
			t.Fatalf("mutation %d kept the old epoch's broadphase", i)
		}
	}
	if c.broadphase() == e.broadphase() {
		t.Fatal("clone and original share a broadphase")
	}
}

// TestBroadphaseConcurrentFirstQuery makes many goroutines issue the
// first query on one shared environment at once while a clone of it is
// mutated and queried; run under -race. Every answer must match the
// sweep of its own world.
func TestBroadphaseConcurrentFirstQuery(t *testing.T) {
	e := Mixed()
	clone := e.Clone()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var sc BatchScratch
			for q := 0; q < 50; q++ {
				p := geom.V(r.Float64(), r.Float64(), r.Float64())
				p2 := geom.V(r.Float64(), r.Float64(), r.Float64())
				gf, gt := e.CheckPoint(p)
				if wf, wt := sweepPoint(e, p); gf != wf || gt != wt {
					errs <- "CheckPoint"
					return
				}
				gf, gt = e.SegmentsFreeSoA(toCols([]geom.Vec{p}, 3), toCols([]geom.Vec{p2}, 3), 1, &sc)
				if wf, wt := sweepSegment(e, p, p2); gf != wf || gt != wt {
					errs <- "SegmentsFreeSoA"
					return
				}
			}
		}(uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := clone.MoveObstacle(i, geom.V(0.01, 0.01, 0)); err != nil {
				errs <- err.Error()
				return
			}
			p := geom.V(0.5, 0.5, 0.5)
			gf, gt := clone.CheckPoint(p)
			if wf, wt := sweepPoint(clone, p); gf != wf || gt != wt {
				errs <- "clone CheckPoint"
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestBroadphaseQueriesAllocateNothing checks the steady-state query
// path on a culled world: no entry point allocates.
func TestBroadphaseQueriesAllocateNothing(t *testing.T) {
	e := Mixed()
	pts := []geom.Vec{geom.V(0.9, 0.1, 0.1), geom.V(0.8, 0.4, 0.5), geom.V(0.1, 0.9, 0.9)}
	cols := toCols(pts, 3)
	ends := toCols([]geom.Vec{geom.V(0.8, 0.4, 0.5), geom.V(0.7, 0.9, 0.5), geom.V(0.9, 0.1, 0.1)}, 3)
	var sc BatchScratch
	query := func() {
		for i, p := range pts {
			e.CheckPoint(p)
			e.SegmentFree(p, pts[(i+1)%len(pts)])
		}
		e.CheckPointsSoA(cols, len(pts), &sc)
		e.SegmentsFreeSoA(cols, ends, len(pts), &sc)
	}
	query()
	if a := testing.AllocsPerRun(100, query); a != 0 {
		t.Fatalf("broadphase queries allocate %v times per run, want 0", a)
	}
}
