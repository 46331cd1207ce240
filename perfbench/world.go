package main

import (
	"fmt"

	"parmp"
	"parmp/internal/serve"
)

// blocker is the benchmark's moving obstacle: a sphere dropped on a path
// the program returned, then moved to the next site. The first mutation
// adds it; every later one removes it and adds it at the new site in one
// atomic batch, so every mutation invalidates state and the obstacle
// count stays fixed. The blocker keeps its own copy of the world after
// each committed mutation, against which returned paths are checked.
type blocker struct {
	world  *parmp.Environment
	index  int // obstacle index the sphere occupies once placed
	radius float64
	placed bool
}

// newBlocker sizes the sphere at 4% of e's shortest workspace span: it
// covers a path's neighbourhood and leaves detours open.
func newBlocker(e *parmp.Environment) *blocker {
	r := e.Bounds.Hi[0] - e.Bounds.Lo[0]
	for d := 1; d < e.Dim(); d++ {
		r = min(r, e.Bounds.Hi[d]-e.Bounds.Lo[d])
	}
	return &blocker{world: e, index: len(e.Obstacles), radius: 0.04 * r}
}

// move returns the mutations that place the sphere at center, their wire
// form, and the world they produce. Nothing changes until commit.
func (b *blocker) move(center parmp.Config) ([]parmp.Mutation, []serve.MutationSpec, *parmp.Environment, error) {
	var muts []parmp.Mutation
	var specs []serve.MutationSpec
	next := b.world.Clone()
	if b.placed {
		if _, err := next.RemoveObstacle(b.index); err != nil {
			return nil, nil, nil, fmt.Errorf("remove blocker: %w", err)
		}
		muts = append(muts, parmp.RemoveObstacle{Index: b.index})
		specs = append(specs, serve.MutationSpec{Op: "remove", Index: b.index})
	}
	sphere := parmp.NewSphereObstacle(center, b.radius)
	if _, err := next.AddObstacle(sphere); err != nil {
		return nil, nil, nil, fmt.Errorf("add blocker: %w", err)
	}
	muts = append(muts, parmp.AddObstacle{Obstacle: sphere})
	specs = append(specs, serve.MutationSpec{Op: "add", Sphere: &serve.SphereSpec{Center: center, Radius: b.radius}})
	return muts, specs, next, nil
}

// commit records that the world returned by move is now the program's.
func (b *blocker) commit(world *parmp.Environment) {
	b.world, b.placed = world, true
}

// corner returns the configuration at fraction f of every bound's span.
func corner(space *parmp.Space, f float64) parmp.Config {
	q := make(parmp.Config, space.Dim())
	for d := range q {
		q[d] = space.Bounds.Lo[d] + f*(space.Bounds.Hi[d]-space.Bounds.Lo[d])
	}
	return q
}
