// Package graph provides the undirected-graph substrate of the
// reproduction: the topologies the paper reasons about (line, ring, grid,
// complete graph, binary tree, barbell, and more), breadth-first search,
// exact diameter computation, and rooted-tree utilities for the spanning
// trees built by gossip protocols.
//
// Graphs are simple (no self-loops, no parallel edges), undirected and
// connected unless a generator documents otherwise. Nodes are numbered
// 0..n-1.
package graph

import (
	"fmt"
	"math"
	"slices"

	"algossip/internal/core"
)

// Graph is an immutable simple undirected graph held as one CSR block:
// row v is nbr[off[v]:off[v+1]], sorted ascending and duplicate-free, and
// every edge is stored once in each endpoint's row. Construct one with a
// Builder or a generator.
type Graph struct {
	name string
	off  []int32       // n+1 row offsets into nbr
	nbr  []core.NodeID // every row, back to back
}

// Builder accumulates edges and produces an immutable Graph. It is an
// edge list: AddEdge appends, and Build sorts and de-duplicates, so
// adding an edge twice (in either orientation) is harmless.
type Builder struct {
	name  string
	n     int
	edges [][2]core.NodeID
}

// NewBuilder returns a Builder for a graph with n nodes and no edges.
func NewBuilder(name string, n int) *Builder {
	if n <= 0 {
		panic("graph: node count must be positive")
	}
	return &Builder{name: name, n: n}
}

// newSizedBuilder returns a Builder with room for m edges, for callers
// inside the package that append simple, in-range edges to b.edges
// directly.
func newSizedBuilder(name string, n, m int) *Builder {
	b := NewBuilder(name, n)
	b.edges = make([][2]core.NodeID, 0, m)
	return b
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are ignored. It panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v core.NodeID) {
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, [2]core.NodeID{u, v})
}

// Build finalizes the graph: it counts degrees, fills both directions of
// every edge, then sorts and de-duplicates each row.
func (b *Builder) Build() *Graph {
	if 2*len(b.edges) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges overflow the row offsets", len(b.edges)))
	}
	off := make([]int32, b.n+1)
	for _, e := range b.edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 1; v <= b.n; v++ {
		off[v] += off[v-1]
	}
	nbr := make([]core.NodeID, off[b.n])
	for _, e := range b.edges { // off[v] walks row v's start to its end
		nbr[off[e[0]]] = e[1]
		off[e[0]]++
		nbr[off[e[1]]] = e[0]
		off[e[1]]++
	}
	// off[v] now ends row v. A row that is not already strictly
	// ascending (generators and filters add edges in row order, so most
	// are) is sorted and de-duplicated; each row is then moved to the
	// front (the write index w never passes the read index), and off[v]
	// becomes the start of the moved row.
	w, start := int32(0), int32(0)
	for v := 0; v < b.n; v++ {
		end := off[v]
		row := nbr[start:end]
		if !strictlyAscending(row) {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		off[v] = w
		w += int32(copy(nbr[w:], row))
		start = end
	}
	off[b.n] = w
	return &Graph{name: b.name, off: off, nbr: nbr[:w:w]}
}

func strictlyAscending(row []core.NodeID) bool {
	for i := 1; i < len(row); i++ {
		if row[i] <= row[i-1] {
			return false
		}
	}
	return true
}

// Name returns the generator-assigned name, e.g. "grid-8x8".
func (g *Graph) Name() string { return g.name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage, is capped at its row and must not be
// modified.
func (g *Graph) Neighbors(v core.NodeID) []core.NodeID {
	return g.nbr[g.off[v]:g.off[v+1]:g.off[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v core.NodeID) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns Δ, the maximum degree.
func (g *Graph) MaxDegree() int {
	hi := 0
	for v := range g.N() {
		hi = max(hi, g.Degree(core.NodeID(v)))
	}
	return hi
}

// MinDegree returns the minimum degree.
func (g *Graph) MinDegree() int {
	lo := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		lo = min(lo, g.Degree(core.NodeID(v)))
	}
	return lo
}

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v core.NodeID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// Edges returns all edges as pairs with u < v, in row order.
func (g *Graph) Edges() [][2]core.NodeID {
	out := make([][2]core.NodeID, 0, g.M())
	for u := range core.NodeID(g.N()) {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]core.NodeID{u, v})
			}
		}
	}
	return out
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return false
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Subgraph returns the subgraph induced by the given nodes, relabeled
// 0..len(nodes)-1 in the order supplied.
func (g *Graph) Subgraph(nodes []core.NodeID) *Graph {
	index := make(map[core.NodeID]int, len(nodes))
	for i, v := range nodes {
		index[v] = i
	}
	b := NewBuilder(g.name+"-sub", len(nodes))
	for i, v := range nodes {
		for _, u := range g.Neighbors(v) {
			if j, ok := index[u]; ok {
				b.AddEdge(core.NodeID(i), core.NodeID(j))
			}
		}
	}
	return b.Build()
}
