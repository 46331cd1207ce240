package env

import (
	"errors"
	"fmt"

	"parmp/internal/geom"
)

// Mutation errors. All mutation methods leave the environment unchanged
// (same obstacle set, same epoch) when they return an error.
var (
	// ErrDegenerateObstacle rejects obstacles that cannot block anything:
	// nil obstacles, spheres with non-positive radius, or obstacles whose
	// bounds dimension does not match the workspace.
	ErrDegenerateObstacle = errors.New("env: degenerate obstacle")
	// ErrOutOfBounds rejects obstacles (or moves) that land entirely
	// outside the workspace bounds, where they could never affect a
	// valid configuration.
	ErrOutOfBounds = errors.New("env: obstacle outside workspace bounds")
	// ErrNoSuchObstacle rejects removals/moves of obstacle indices that
	// do not exist.
	ErrNoSuchObstacle = errors.New("env: no such obstacle")
	// ErrImmovableObstacle rejects moves of obstacle types the package
	// does not know how to translate.
	ErrImmovableObstacle = errors.New("env: obstacle type cannot be translated")
)

// Delta describes one committed environment mutation: the epoch it
// produced and the obstacle-set difference. Removed obstacles can only
// free configurations, so repair for a removal-only delta never
// invalidates roadmap state; Added obstacles are the only source of new
// collisions and drive all candidate selection.
type Delta struct {
	// Epoch is the environment epoch after this mutation committed.
	Epoch uint64
	// Added holds obstacles present after the mutation that were not
	// present before.
	Added []Obstacle
	// Removed holds obstacles present before the mutation that are not
	// present after.
	Removed []Obstacle
}

// Empty reports whether the delta changes the obstacle set at all. An
// empty delta still bumps the epoch (callers may commit no-op mutations
// to force cache rollover) but repair is trivially a no-op.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Invalidating reports whether the delta can invalidate previously free
// configurations or edges — i.e. whether it added any obstacle.
func (d Delta) Invalidating() bool { return len(d.Added) > 0 }

// AddedBounds returns the union AABB of all added obstacles inflated by
// margin on every side, and ok=false when the delta added nothing. Only
// configurations whose workspace extent intersects this box can have
// been invalidated.
func (d Delta) AddedBounds(margin float64) (geom.AABB, bool) {
	if len(d.Added) == 0 {
		return geom.AABB{}, false
	}
	u := d.Added[0].Bounds()
	lo, hi := u.Lo.Clone(), u.Hi.Clone()
	for _, o := range d.Added[1:] {
		b := o.Bounds()
		for i := range lo {
			if b.Lo[i] < lo[i] {
				lo[i] = b.Lo[i]
			}
			if b.Hi[i] > hi[i] {
				hi[i] = b.Hi[i]
			}
		}
	}
	for i := range lo {
		lo[i] -= margin
		hi[i] += margin
	}
	return geom.AABB{Lo: lo, Hi: hi}, true
}

// Merge returns a delta equivalent to applying d then o: the epoch of o
// and the concatenated obstacle differences. Obstacles both added by d
// and removed by o (or vice versa) are not cancelled — Merge is a
// conservative union, which only costs repair time, never correctness.
func (d Delta) Merge(o Delta) Delta {
	m := Delta{Epoch: o.Epoch}
	m.Added = append(append(m.Added, d.Added...), o.Added...)
	m.Removed = append(append(m.Removed, d.Removed...), o.Removed...)
	return m
}

// Clone returns a deep-enough copy of the environment for copy-on-write
// mutation: the obstacle slice is copied so appends/removals on the
// clone never alias the original, while the obstacle values themselves
// (immutable once constructed) are shared. The clone builds its own
// broadphase.
func (e *Environment) Clone() *Environment {
	c := &Environment{Name: e.Name, Bounds: e.Bounds, Epoch: e.Epoch}
	c.Obstacles = make([]Obstacle, len(e.Obstacles))
	copy(c.Obstacles, e.Obstacles)
	return c
}

// validateObstacle checks that o is a usable obstacle for this
// workspace: non-nil, matching dimension, positive-radius spheres and
// bounds that intersect the workspace. Thin (zero-volume) boxes are
// legal — walls and doors are exactly that.
func (e *Environment) validateObstacle(o Obstacle) error {
	if o == nil {
		return ErrDegenerateObstacle
	}
	if s, ok := o.(SphereObstacle); ok && s.Radius <= 0 {
		return fmt.Errorf("%w: sphere radius %g", ErrDegenerateObstacle, s.Radius)
	}
	b := o.Bounds()
	if b.Dim() != e.Dim() {
		return fmt.Errorf("%w: obstacle dim %d in %d-dimensional workspace",
			ErrDegenerateObstacle, b.Dim(), e.Dim())
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("%w: inverted bounds", ErrDegenerateObstacle)
		}
	}
	if !e.Bounds.Intersects(b) {
		return fmt.Errorf("%w: obstacle bounds %v", ErrOutOfBounds, b)
	}
	return nil
}

// commit starts a new epoch: it bumps Epoch and drops the broadphase of
// the old obstacle set.
func (e *Environment) commit() {
	e.Epoch++
	e.broad.Store(nil)
}

// AddObstacle appends o to the obstacle set, bumps the epoch and
// returns the delta. The environment is unchanged on error.
func (e *Environment) AddObstacle(o Obstacle) (Delta, error) {
	if err := e.validateObstacle(o); err != nil {
		return Delta{}, err
	}
	e.Obstacles = append(e.Obstacles, o)
	e.commit()
	return Delta{Epoch: e.Epoch, Added: []Obstacle{o}}, nil
}

// RemoveObstacle deletes the obstacle at index i, bumps the epoch and
// returns the delta. Removal can only free space, so the returned delta
// never invalidates roadmap state.
func (e *Environment) RemoveObstacle(i int) (Delta, error) {
	if i < 0 || i >= len(e.Obstacles) {
		return Delta{}, fmt.Errorf("%w: index %d of %d", ErrNoSuchObstacle, i, len(e.Obstacles))
	}
	o := e.Obstacles[i]
	e.Obstacles = append(e.Obstacles[:i:i], e.Obstacles[i+1:]...)
	e.commit()
	return Delta{Epoch: e.Epoch, Removed: []Obstacle{o}}, nil
}

// MoveObstacle translates the obstacle at index i by dv, bumps the
// epoch and returns a delta removing the old pose and adding the new
// one. The move is rejected (environment unchanged) when the index is
// invalid, the translation dimension mismatches, the obstacle type is
// not translatable, or the moved obstacle lands entirely outside the
// workspace — a forklift cannot drive through the warehouse wall.
func (e *Environment) MoveObstacle(i int, dv geom.Vec) (Delta, error) {
	if i < 0 || i >= len(e.Obstacles) {
		return Delta{}, fmt.Errorf("%w: index %d of %d", ErrNoSuchObstacle, i, len(e.Obstacles))
	}
	if len(dv) != e.Dim() {
		return Delta{}, fmt.Errorf("%w: translation dim %d in %d-dimensional workspace",
			ErrDegenerateObstacle, len(dv), e.Dim())
	}
	old := e.Obstacles[i]
	moved, ok := TranslateObstacle(old, dv)
	if !ok {
		return Delta{}, fmt.Errorf("%w: %T", ErrImmovableObstacle, old)
	}
	if err := e.validateObstacle(moved); err != nil {
		return Delta{}, err
	}
	e.Obstacles[i] = moved
	e.commit()
	return Delta{Epoch: e.Epoch, Added: []Obstacle{moved}, Removed: []Obstacle{old}}, nil
}

// TranslateObstacle returns a copy of o translated by dv, or ok=false
// for obstacle types the package cannot translate.
func TranslateObstacle(o Obstacle, dv geom.Vec) (Obstacle, bool) {
	switch ob := o.(type) {
	case BoxObstacle:
		return BoxObstacle{Box: geom.NewAABB(ob.Box.Lo.Add(dv), ob.Box.Hi.Add(dv))}, true
	case SphereObstacle:
		return SphereObstacle{Center: ob.Center.Add(dv), Radius: ob.Radius}, true
	case ConvexPolygon:
		verts := make([]geom.Vec, len(ob.Verts))
		for i, v := range ob.Verts {
			verts[i] = v.Add(dv)
		}
		if p, ok := NewConvexPolygon(verts); ok {
			return p, true
		}
		return nil, false
	}
	return nil, false
}
