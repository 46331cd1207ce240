package env

import (
	"math/bits"

	"parmp/internal/geom"
)

const (
	// gridMaxDim is the highest workspace dimension the broadphase
	// indexes; higher-dimensional workspaces run the full sweep.
	gridMaxDim = 3
	// gridPad pads every obstacle's bounds before they are binned,
	// relative to the largest coordinate magnitude in the world. The
	// per-type kernels round: the slab test can report a hit at t = 1
	// for a box a rounding error past a segment's end, and the sphere
	// and polygon tests can accept a point a rounding error outside the
	// obstacle's bounds. The pad dwarfs those errors, so the grid never
	// culls an obstacle a kernel would hit.
	gridPad = 1e-9
	// gridReach bounds, relative to the same magnitude, the query
	// coordinates the pad covers (rounding error grows with the
	// operands); a query reaching further, or holding a NaN, runs the
	// full sweep.
	gridReach = 1e3
	// gridStackWords sizes the candidate bitset a query keeps on its
	// stack: worlds of up to 64·gridStackWords obstacles cull without
	// allocating.
	gridStackWords = 16
)

// grid is the obstacle broadphase of one environment epoch: a uniform
// grid over the environment bounds, ⌊n^(1/d)⌋ cells per axis for n
// obstacles, whose cells list in ascending order the obstacles whose
// padded bounds overlap them. A query gathers the candidates of the
// cells its points or segments span, deduplicated and in index order,
// and the collision entry points run their kernels on those only.
//
// The cull is conservative and count-exact: every obstacle a kernel
// could hit is a candidate, and candidates keep index order, so the
// first hit — and with it the obstacle-test count the entry points
// report — is exactly the full sweep's. A world whose grid would be one
// cell has no cells: every query gets all obstacles, the sweep unchanged.
//
// A grid is immutable once built. Environment.broadphase builds it on
// first use and every mutation drops it.
type grid struct {
	n      int     // obstacle count the grid was built for
	all    []int32 // 0..n-1: the full sweep
	res    int     // cells per axis; 0 = no cells, every query sweeps
	dim    int
	lo     [gridMaxDim]float64 // grid origin
	scale  [gridMaxDim]float64 // cells per unit length
	stride [gridMaxDim]int     // row-major cell strides; 0 on unused axes
	reach  float64
	start  []int32 // cell c lists ids[start[c]:start[c+1]]
	ids    []int32
}

// broadphase returns the grid of the current obstacle set, building it
// on first use. Concurrent first queries may each build one; they are
// identical and the last store wins.
func (e *Environment) broadphase() *grid {
	g := e.broad.Load()
	if g == nil || g.n != len(e.Obstacles) {
		g = newGrid(e)
		e.broad.Store(g)
	}
	return g
}

// maxAbs returns the largest coordinate magnitude of b.
func maxAbs(b geom.AABB) float64 {
	var m float64
	for k := range b.Lo {
		m = max(m, -b.Lo[k], b.Hi[k], b.Lo[k], -b.Hi[k])
	}
	return m
}

func newGrid(e *Environment) *grid {
	n, d := len(e.Obstacles), e.Dim()
	g := &grid{n: n, dim: d, all: make([]int32, n)}
	for j := range g.all {
		g.all[j] = int32(j)
	}
	res := 1
	for ipow(res+1, d) <= n {
		res++
	}
	if d > gridMaxDim || res < 2 {
		return g
	}
	bounds := make([]geom.AABB, n)
	mag := maxAbs(e.Bounds)
	for j, o := range e.Obstacles {
		bounds[j] = o.Bounds()
		mag = max(mag, maxAbs(bounds[j]))
	}
	g.res, g.reach = res, gridReach*mag
	cells := 1
	for k := 0; k < d; k++ {
		g.lo[k] = e.Bounds.Lo[k]
		if ext := e.Bounds.Hi[k] - e.Bounds.Lo[k]; ext > 0 {
			g.scale[k] = float64(res) / ext
		}
		g.stride[k] = cells
		cells *= res
	}
	// Bin twice: count each cell's entries, then fill them in index
	// order, so every cell's list ascends.
	pad := gridPad * mag
	g.start = make([]int32, cells+1)
	var next []int32
	for pass := 0; pass < 2; pass++ {
		for j, b := range bounds {
			var lo, hi [gridMaxDim]float64
			for k := 0; k < d; k++ {
				lo[k], hi[k] = b.Lo[k]-pad, b.Hi[k]+pad
			}
			c0, c1, ok := g.cellRange(&lo, &hi)
			if !ok {
				// Unbounded or NaN bounds: the obstacle is everywhere.
				for k := 0; k < d; k++ {
					c0[k], c1[k] = 0, res-1
				}
			}
			for z := c0[2]; z <= c1[2]; z++ {
				for y := c0[1]; y <= c1[1]; y++ {
					for x := c0[0]; x <= c1[0]; x++ {
						c := x*g.stride[0] + y*g.stride[1] + z*g.stride[2]
						if pass == 0 {
							g.start[c+1]++
						} else {
							g.ids[next[c]] = int32(j)
							next[c]++
						}
					}
				}
			}
		}
		if pass == 0 {
			for c := 0; c < cells; c++ {
				g.start[c+1] += g.start[c]
			}
			g.ids = make([]int32, g.start[cells])
			next = append([]int32(nil), g.start[:cells]...)
		}
	}
	return g
}

func ipow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}

// cellOf returns the cell of coordinate x on axis k, and ok=false when
// x is NaN or lies beyond the grid's reach. Coordinates outside the
// bounds clamp to the border cells. The cell is monotone in x, so a
// query overlapping an obstacle's padded bounds shares a cell with it.
func (g *grid) cellOf(k int, x float64) (int, bool) {
	if !(x >= -g.reach && x <= g.reach) {
		return 0, false
	}
	f := (x - g.lo[k]) * g.scale[k]
	if f <= 0 {
		return 0, true
	}
	if f >= float64(g.res) {
		return g.res - 1, true
	}
	return int(f), true
}

// cellRange returns the cells [c0, c1] the box [lo, hi] spans on each
// axis (unused axes stay 0), and ok=false when a corner has no cell.
func (g *grid) cellRange(lo, hi *[gridMaxDim]float64) (c0, c1 [gridMaxDim]int, ok bool) {
	for k := 0; k < g.dim; k++ {
		var okLo, okHi bool
		c0[k], okLo = g.cellOf(k, lo[k])
		c1[k], okHi = g.cellOf(k, hi[k])
		if !okLo || !okHi {
			return c0, c1, false
		}
	}
	return c0, c1, true
}

// cellList returns the obstacles listed in cell c, ascending.
func (g *grid) cellList(c [gridMaxDim]int) []int32 {
	i := c[0]*g.stride[0] + c[1]*g.stride[1] + c[2]*g.stride[2]
	return g.ids[g.start[i]:g.start[i+1]]
}

// mark returns a bitset over obstacle indices with the obstacles listed
// in the cells [c0, c1] set. It is stack[:words] when that fits.
func (g *grid) mark(c0, c1 [gridMaxDim]int, stack *[gridStackWords]uint64) []uint64 {
	mark := stack[:]
	if words := (g.n + 63) / 64; words > len(mark) {
		mark = make([]uint64, words)
	} else {
		mark = mark[:words]
	}
	for z := c0[2]; z <= c1[2]; z++ {
		for y := c0[1]; y <= c1[1]; y++ {
			for x := c0[0]; x <= c1[0]; x++ {
				for _, j := range g.cellList([gridMaxDim]int{x, y, z}) {
					mark[j>>6] |= 1 << (j & 63)
				}
			}
		}
	}
	return mark
}

// cellCandidates returns, ascending and deduplicated, the obstacles
// listed in the cells [c0, c1]: one cell's list as it is, a union
// gathered into buf. The second result is buf after the appends.
func (g *grid) cellCandidates(c0, c1 [gridMaxDim]int, buf []int32) (ids, grown []int32) {
	if c0 == c1 {
		return g.cellList(c0), buf
	}
	var stack [gridStackWords]uint64
	for w, word := range g.mark(c0, c1, &stack) {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return buf, buf
}

// pointCandidates returns the candidates for a point query at p on a
// grid with cells.
func (g *grid) pointCandidates(p geom.Vec) []int32 {
	var c [gridMaxDim]int
	for k := 0; k < g.dim; k++ {
		var ok bool
		if c[k], ok = g.cellOf(k, p[k]); !ok {
			return g.all
		}
	}
	return g.cellList(c)
}

// segmentFree is SegmentFree over the candidates, on a grid with cells,
// of the cells the segment a→b spans. A segment spanning several cells
// walks their union's bitset in place, so the scalar query needs no
// buffer.
func (g *grid) segmentFree(obs []Obstacle, a, b geom.Vec) (bool, int) {
	var lo, hi [gridMaxDim]float64
	for k := 0; k < g.dim; k++ {
		lo[k], hi[k] = min(a[k], b[k]), max(a[k], b[k])
	}
	c0, c1, ok := g.cellRange(&lo, &hi)
	if ok && c0 != c1 {
		var stack [gridStackWords]uint64
		for w, word := range g.mark(c0, c1, &stack) {
			for ; word != 0; word &= word - 1 {
				if j := w<<6 + bits.TrailingZeros64(word); obs[j].SegmentHits(a, b) {
					return false, j + 1
				}
			}
		}
		return true, len(obs)
	}
	ids := g.all
	if ok {
		ids = g.cellList(c0)
	}
	for _, j := range ids {
		if obs[j].SegmentHits(a, b) {
			return false, int(j) + 1
		}
	}
	return true, len(obs)
}

// run splits a batch for the broadphase. The batch's items are the
// points acols[·][i], or with bcols the segments acols[·][i] →
// bcols[·][i]. run returns the end of the run of items from i0 whose
// cells stay within two per axis, and the candidates of the cells the
// run spans, gathered into the scratch. Runs keep the culled sets of a
// spatially scattered batch (say, probe points of configurations all
// over the world) as small as its items' own. An item without a cell
// (a NaN, or a coordinate beyond reach) is a run of its own with every
// obstacle a candidate. The grid must have cells.
func (g *grid) run(acols, bcols [][]float64, i0, n int, sc *BatchScratch) (int, []int32) {
	var c0, c1 [gridMaxDim]int
	i := i0
items:
	for ; i < n; i++ {
		var lo, hi [gridMaxDim]int
		for k := 0; k < g.dim; k++ {
			a, okA := g.cellOf(k, acols[k][i])
			b, okB := a, true
			if bcols != nil {
				b, okB = g.cellOf(k, bcols[k][i])
			}
			if !okA || !okB {
				if i == i0 {
					return i0 + 1, g.all
				}
				break items
			}
			lo[k], hi[k] = min(a, b), max(a, b)
			if i > i0 {
				lo[k], hi[k] = min(lo[k], c0[k]), max(hi[k], c1[k])
				if hi[k]-lo[k] > 1 {
					break items
				}
			}
		}
		c0, c1 = lo, hi
	}
	var ids []int32
	ids, sc.cand = g.cellCandidates(c0, c1, sc.cand[:0])
	return i, ids
}
