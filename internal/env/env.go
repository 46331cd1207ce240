// Package env models planning workspaces: a bounding box populated with
// obstacles, plus the collision and free-volume queries the planners and
// the load-estimation heuristics need.
//
// The paper's benchmark environments are provided as procedural builders:
// med-cube / small-cube / free (3D narrow-passage variants around a single
// cubic obstacle blocking ~24 % / ~6 % / 0 % of the workspace) and the
// mixed / mixed-30 cluttered scenes (~60 % / ~30 % blocked) used for the
// radial RRT experiments, alongside walls/maze scenes for the examples.
package env

import (
	"fmt"
	"math"
	"sync/atomic"

	"parmp/internal/geom"
	"parmp/internal/rng"
)

// Obstacle is a solid region of the workspace.
type Obstacle interface {
	// Contains reports whether the point collides with the obstacle.
	Contains(p geom.Vec) bool
	// Bounds returns an AABB enclosing the obstacle.
	Bounds() geom.AABB
	// SegmentHits reports whether the segment a→b passes through the
	// obstacle.
	SegmentHits(a, b geom.Vec) bool
	// Volume returns the obstacle's d-dimensional volume.
	Volume() float64
}

// BoxObstacle is an axis-aligned solid box.
type BoxObstacle struct {
	Box geom.AABB
}

// Contains implements Obstacle.
func (o BoxObstacle) Contains(p geom.Vec) bool { return o.Box.Contains(p) }

// Bounds implements Obstacle.
func (o BoxObstacle) Bounds() geom.AABB { return o.Box }

// SegmentHits implements Obstacle.
func (o BoxObstacle) SegmentHits(a, b geom.Vec) bool { return o.Box.SegmentIntersects(a, b) }

// Volume implements Obstacle.
func (o BoxObstacle) Volume() float64 { return o.Box.Volume() }

// SphereObstacle is a solid ball.
type SphereObstacle struct {
	Center geom.Vec
	Radius float64
}

// Contains implements Obstacle.
func (o SphereObstacle) Contains(p geom.Vec) bool {
	return p.Dist2(o.Center) <= o.Radius*o.Radius
}

// Bounds implements Obstacle.
func (o SphereObstacle) Bounds() geom.AABB {
	lo := make(geom.Vec, len(o.Center))
	hi := make(geom.Vec, len(o.Center))
	for i := range o.Center {
		lo[i] = o.Center[i] - o.Radius
		hi[i] = o.Center[i] + o.Radius
	}
	return geom.AABB{Lo: lo, Hi: hi}
}

// SegmentHits implements Obstacle.
func (o SphereObstacle) SegmentHits(a, b geom.Vec) bool {
	// Closest point on segment to center within radius?
	ab := b.Sub(a)
	den := ab.Norm2()
	t := 0.0
	if den > 0 {
		t = ab.Dot(o.Center.Sub(a)) / den
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	closest := a.Lerp(b, t)
	return closest.Dist2(o.Center) <= o.Radius*o.Radius
}

// Volume implements Obstacle. Only 2D and 3D are supported exactly; higher
// dimensions use the general n-ball formula.
func (o SphereObstacle) Volume() float64 {
	d := float64(len(o.Center))
	// V_d(r) = pi^(d/2) / Gamma(d/2+1) * r^d
	return math.Pow(math.Pi, d/2) / math.Gamma(d/2+1) * math.Pow(o.Radius, d)
}

// Environment is a workspace: bounds plus obstacles.
//
// Environments are versioned: the mutation API (AddObstacle,
// RemoveObstacle, MoveObstacle) edits the obstacle set in place, bumps
// Epoch and returns a Delta describing the change, so downstream
// structures (roadmaps, trees, caches) can repair incrementally instead
// of rebuilding. An Environment is not safe for concurrent mutation;
// long-lived services clone (Clone) before mutating so published
// snapshots keep reading a frozen world. Concurrent queries are safe.
type Environment struct {
	Name      string
	Bounds    geom.AABB
	Obstacles []Obstacle
	// Epoch counts committed mutations. A freshly built environment is
	// epoch 0; every successful AddObstacle/RemoveObstacle/MoveObstacle
	// increments it. Snapshots carry the epoch they were planned
	// against, which is what keys path-cache invalidation in the
	// serving tier.
	Epoch uint64
	// broad caches the obstacle broadphase of this epoch's obstacle
	// set: built by the first query, dropped by every mutation, never
	// shared with a clone.
	broad atomic.Pointer[grid]
}

// Dim returns the workspace dimension.
func (e *Environment) Dim() int { return e.Bounds.Dim() }

// PointFree reports whether p is inside bounds and outside every obstacle.
// The number of obstacle tests performed equals len(Obstacles) in the worst
// case; callers that meter work should use CheckPoint.
func (e *Environment) PointFree(p geom.Vec) bool {
	free, _ := e.CheckPoint(p)
	return free
}

// CheckPoint reports whether p is collision-free and how many obstacle
// containment tests were performed, so callers can meter collision work.
// The broadphase (see grid) tests only the obstacles near p, but the
// count is the full sweep's: j+1 for a hit on obstacle j, len(Obstacles)
// for a free point.
func (e *Environment) CheckPoint(p geom.Vec) (free bool, tests int) {
	if !e.Bounds.Contains(p) {
		return false, 0
	}
	g := e.broadphase()
	ids := g.all
	if g.res != 0 {
		ids = g.pointCandidates(p)
	}
	for _, j := range ids {
		if e.Obstacles[j].Contains(p) {
			return false, int(j) + 1
		}
	}
	return true, len(e.Obstacles)
}

// SegmentFree reports whether the straight segment a→b avoids all
// obstacles. Bounds containment of the endpoints is the caller's concern.
// As with CheckPoint, the broadphase culls the obstacles tested but the
// reported count is the full sweep's.
func (e *Environment) SegmentFree(a, b geom.Vec) (free bool, tests int) {
	if g := e.broadphase(); g.res != 0 {
		return g.segmentFree(e.Obstacles, a, b)
	}
	for i, o := range e.Obstacles {
		if o.SegmentHits(a, b) {
			return false, i + 1
		}
	}
	return true, len(e.Obstacles)
}

// BlockedFraction estimates the fraction of the bounding volume covered by
// obstacles. For box-only environments with pairwise-disjoint obstacles the
// result is exact; otherwise it falls back to Monte-Carlo with n samples.
func (e *Environment) BlockedFraction(n int, seed uint64) float64 {
	total := e.Bounds.Volume()
	if total == 0 {
		return 0
	}
	if e.obstaclesDisjointBoxes() {
		var blocked float64
		for _, o := range e.Obstacles {
			blocked += e.Bounds.IntersectionVolume(o.Bounds())
		}
		return blocked / total
	}
	if n <= 0 {
		n = 100000
	}
	r := rng.New(seed)
	hit := 0
	p := make(geom.Vec, e.Dim())
	for i := 0; i < n; i++ {
		for j := range p {
			p[j] = r.Range(e.Bounds.Lo[j], e.Bounds.Hi[j])
		}
		for _, o := range e.Obstacles {
			if o.Contains(p) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(n)
}

// FreeVolumeIn returns the free-space volume inside region. Exact for
// disjoint box obstacles; Monte-Carlo (with the given sample count and
// seed) otherwise.
func (e *Environment) FreeVolumeIn(region geom.AABB, mcSamples int, seed uint64) float64 {
	total := region.Volume()
	if e.obstaclesDisjointBoxes() {
		var blocked float64
		for _, o := range e.Obstacles {
			blocked += region.IntersectionVolume(o.Bounds())
		}
		return total - blocked
	}
	if mcSamples <= 0 {
		mcSamples = 2000
	}
	r := rng.New(seed)
	free := 0
	p := make(geom.Vec, region.Dim())
	for i := 0; i < mcSamples; i++ {
		for j := range p {
			p[j] = r.Range(region.Lo[j], region.Hi[j])
		}
		collides := false
		for _, o := range e.Obstacles {
			if o.Contains(p) {
				collides = true
				break
			}
		}
		if !collides {
			free++
		}
	}
	return total * float64(free) / float64(mcSamples)
}

// obstaclesDisjointBoxes reports whether all obstacles are boxes with
// pairwise-disjoint bounds (the condition for exact volume accounting).
func (e *Environment) obstaclesDisjointBoxes() bool {
	boxes := make([]geom.AABB, 0, len(e.Obstacles))
	for _, o := range e.Obstacles {
		b, ok := o.(BoxObstacle)
		if !ok {
			return false
		}
		boxes = append(boxes, b.Box)
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].IntersectionVolume(boxes[j]) > 0 {
				return false
			}
		}
	}
	return true
}

// RayDistanceToObstacle returns the distance along the ray origin+t*dir at
// which the first obstacle (or workspace boundary) is hit. Used by the
// k-random-rays RRT work estimator.
func (e *Environment) RayDistanceToObstacle(origin, dir geom.Vec) float64 {
	best := math.Inf(1)
	// Distance to exit the bounding box (treat the boundary as blocking).
	if t, ok := exitDistance(e.Bounds, origin, dir); ok {
		best = t
	}
	for _, o := range e.Obstacles {
		if t, ok := o.Bounds().RayEnter(origin, dir); ok && t < best {
			best = t
		}
	}
	return best
}

// exitDistance returns the parameter at which a ray starting inside box
// leaves it.
func exitDistance(box geom.AABB, origin, dir geom.Vec) (float64, bool) {
	tMax := math.Inf(1)
	for i := range box.Lo {
		if math.Abs(dir[i]) < 1e-15 {
			continue
		}
		t1 := (box.Lo[i] - origin[i]) / dir[i]
		t2 := (box.Hi[i] - origin[i]) / dir[i]
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t2 < tMax {
			tMax = t2
		}
	}
	if math.IsInf(tMax, 1) || tMax < 0 {
		return 0, false
	}
	return tMax, true
}

// String summarizes the environment.
func (e *Environment) String() string {
	return fmt.Sprintf("env %q: dim=%d obstacles=%d blocked=%.1f%%",
		e.Name, e.Dim(), len(e.Obstacles), 100*e.BlockedFraction(20000, 1))
}
