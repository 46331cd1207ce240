package geom

import (
	"fmt"
	"math"
)

// AABB is a d-dimensional axis-aligned box [Lo, Hi].
type AABB struct {
	Lo, Hi Vec
}

// NewAABB returns the box spanning [lo, hi]. It panics if dimensions differ
// or any lo component exceeds the matching hi component.
func NewAABB(lo, hi Vec) AABB {
	if len(lo) != len(hi) {
		panic("geom: AABB corner dimensions differ")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: AABB lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i]))
		}
	}
	return AABB{Lo: lo.Clone(), Hi: hi.Clone()}
}

// Box2 returns a 2D box.
func Box2(x0, y0, x1, y1 float64) AABB {
	return NewAABB(V(x0, y0), V(x1, y1))
}

// Box3 returns a 3D box.
func Box3(x0, y0, z0, x1, y1, z1 float64) AABB {
	return NewAABB(V(x0, y0, z0), V(x1, y1, z1))
}

// Dim returns the box dimension.
func (b AABB) Dim() int { return len(b.Lo) }

// Contains reports whether p lies inside b (boundary inclusive).
func (b AABB) Contains(p Vec) bool {
	for i := range b.Lo {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsOpen reports whether p lies strictly inside b.
func (b AABB) ContainsOpen(p Vec) bool {
	for i := range b.Lo {
		if p[i] <= b.Lo[i] || p[i] >= b.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of b.
func (b AABB) Center() Vec {
	c := make(Vec, len(b.Lo))
	for i := range c {
		c[i] = 0.5 * (b.Lo[i] + b.Hi[i])
	}
	return c
}

// Extent returns the side lengths of b.
func (b AABB) Extent() Vec {
	e := make(Vec, len(b.Lo))
	for i := range e {
		e[i] = b.Hi[i] - b.Lo[i]
	}
	return e
}

// Volume returns the d-dimensional volume of b.
func (b AABB) Volume() float64 {
	v := 1.0
	for i := range b.Lo {
		v *= b.Hi[i] - b.Lo[i]
	}
	return v
}

// Intersects reports whether b and o overlap (boundary touching counts).
func (b AABB) Intersects(o AABB) bool {
	for i := range b.Lo {
		if b.Hi[i] < o.Lo[i] || o.Hi[i] < b.Lo[i] {
			return false
		}
	}
	return true
}

// Intersection returns the overlap of b and o and whether it is non-empty.
// The returned box may be degenerate (zero width) when boxes merely touch.
func (b AABB) Intersection(o AABB) (AABB, bool) {
	lo := make(Vec, len(b.Lo))
	hi := make(Vec, len(b.Lo))
	for i := range b.Lo {
		lo[i] = max(b.Lo[i], o.Lo[i])
		hi[i] = min(b.Hi[i], o.Hi[i])
		if lo[i] > hi[i] {
			return AABB{}, false
		}
	}
	return AABB{Lo: lo, Hi: hi}, true
}

// IntersectionVolume returns the volume of the overlap of b and o, or 0 if
// they are disjoint.
func (b AABB) IntersectionVolume(o AABB) float64 {
	v := 1.0
	for i := range b.Lo {
		lo := max(b.Lo[i], o.Lo[i])
		hi := min(b.Hi[i], o.Hi[i])
		if lo >= hi {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Expand returns b grown by margin on every side (shrunk if negative;
// sides collapse to the center rather than inverting).
func (b AABB) Expand(margin float64) AABB {
	lo := make(Vec, len(b.Lo))
	hi := make(Vec, len(b.Lo))
	for i := range b.Lo {
		lo[i] = b.Lo[i] - margin
		hi[i] = b.Hi[i] + margin
		if lo[i] > hi[i] {
			m := 0.5 * (b.Lo[i] + b.Hi[i])
			lo[i], hi[i] = m, m
		}
	}
	return AABB{Lo: lo, Hi: hi}
}

// Clamp returns p with each component clamped into b.
func (b AABB) Clamp(p Vec) Vec {
	c := make(Vec, len(p))
	for i := range p {
		c[i] = min(max(p[i], b.Lo[i]), b.Hi[i])
	}
	return c
}

// DistanceTo returns the Euclidean distance from p to the closest point of
// b; 0 if p is inside.
func (b AABB) DistanceTo(p Vec) float64 {
	var s float64
	for i := range p {
		if p[i] < b.Lo[i] {
			d := b.Lo[i] - p[i]
			s += d * d
		} else if p[i] > b.Hi[i] {
			d := p[i] - b.Hi[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// SegmentIntersects reports whether the segment a→b2 passes through the box,
// using the slab method. Touching the boundary counts as intersecting.
func (b AABB) SegmentIntersects(a, b2 Vec) bool {
	tMin, tMax := 0.0, 1.0
	for i := range b.Lo {
		d := b2[i] - a[i]
		if math.Abs(d) < 1e-15 {
			if a[i] < b.Lo[i] || a[i] > b.Hi[i] {
				return false
			}
			continue
		}
		t1 := (b.Lo[i] - a[i]) / d
		t2 := (b.Hi[i] - a[i]) / d
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		tMin = max(tMin, t1)
		tMax = min(tMax, t2)
		if tMin > tMax {
			return false
		}
	}
	return true
}

// RayEnter returns the parameter t >= 0 at which the ray origin+t*dir first
// enters the box, and ok=false if the ray misses it. A ray starting inside
// returns t=0.
func (b AABB) RayEnter(origin, dir Vec) (float64, bool) {
	tMin, tMax := 0.0, math.Inf(1)
	for i := range b.Lo {
		if math.Abs(dir[i]) < 1e-15 {
			if origin[i] < b.Lo[i] || origin[i] > b.Hi[i] {
				return 0, false
			}
			continue
		}
		t1 := (b.Lo[i] - origin[i]) / dir[i]
		t2 := (b.Hi[i] - origin[i]) / dir[i]
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		tMin = max(tMin, t1)
		tMax = min(tMax, t2)
		if tMin > tMax {
			return 0, false
		}
	}
	return tMin, true
}

// String formats the box as "[lo..hi]".
func (b AABB) String() string {
	return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi)
}
