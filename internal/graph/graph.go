// Package graph provides the generic adjacency-list graph used both for
// roadmaps (vertices = configurations, edges = valid local plans) and for
// region graphs (vertices = subdivision regions, edges = adjacency).
//
// It is a sequential data structure; distribution is handled a level up by
// assigning vertex ranges (regions) to virtual processors.
package graph

import "fmt"

// ID identifies a vertex within a Graph.
type ID int

// InvalidID is returned by lookups that find nothing.
const InvalidID ID = -1

// Edge is a weighted, undirected adjacency record.
type Edge struct {
	To     ID
	Weight float64
}

// Graph is an undirected adjacency-list graph with vertex payloads of
// type V. The zero value is an empty graph ready to use.
type Graph[V any] struct {
	verts []V
	adj   [][]Edge
	edges int
}

// New returns an empty graph with capacity hint n.
func New[V any](n int) *Graph[V] {
	return &Graph[V]{
		verts: make([]V, 0, n),
		adj:   make([][]Edge, 0, n),
	}
}

// AddVertex appends a vertex and returns its ID.
func (g *Graph[V]) AddVertex(v V) ID {
	g.verts = append(g.verts, v)
	g.adj = append(g.adj, nil)
	return ID(len(g.verts) - 1)
}

// NumVertices returns the number of vertices.
func (g *Graph[V]) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of undirected edges.
func (g *Graph[V]) NumEdges() int { return g.edges }

// Vertex returns the payload of id. It panics for out-of-range ids.
func (g *Graph[V]) Vertex(id ID) V { return g.verts[id] }

// SetVertex replaces the payload of id.
func (g *Graph[V]) SetVertex(id ID, v V) { g.verts[id] = v }

// AddEdge inserts an undirected edge a—b with the given weight. Duplicate
// and self edges are rejected (returning false).
func (g *Graph[V]) AddEdge(a, b ID, weight float64) bool {
	if a == b {
		return false
	}
	if g.HasEdge(a, b) {
		return false
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Weight: weight})
	g.adj[b] = append(g.adj[b], Edge{To: a, Weight: weight})
	g.edges++
	return true
}

// HasEdge reports whether an edge a—b exists.
func (g *Graph[V]) HasEdge(a, b ID) bool {
	if int(a) >= len(g.adj) || int(b) >= len(g.adj) {
		return false
	}
	// Scan the shorter adjacency list.
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of id. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph[V]) Neighbors(id ID) []Edge { return g.adj[id] }

// Degree returns the number of edges incident to id.
func (g *Graph[V]) Degree(id ID) int { return len(g.adj[id]) }

// ForEachEdge calls fn once per undirected edge (a < b ordering).
func (g *Graph[V]) ForEachEdge(fn func(a, b ID, w float64)) {
	for a := range g.adj {
		for _, e := range g.adj[a] {
			if ID(a) < e.To {
				fn(ID(a), e.To, e.Weight)
			}
		}
	}
}

// String summarizes the graph.
func (g *Graph[V]) String() string {
	return fmt.Sprintf("graph{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}
