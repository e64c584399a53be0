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
	"sort"

	"algossip/internal/core"
)

// Graph is an immutable simple undirected graph held as sorted adjacency
// lists. Construct one with a Builder or a generator.
type Graph struct {
	name string
	adj  [][]core.NodeID
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	name string
	n    int
	adj  []map[core.NodeID]struct{}
}

// NewBuilder returns a Builder for a graph with n nodes and no edges.
func NewBuilder(name string, n int) *Builder {
	if n <= 0 {
		panic("graph: node count must be positive")
	}
	adj := make([]map[core.NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[core.NodeID]struct{})
	}
	return &Builder{name: name, n: n, adj: adj}
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
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
}

// Build finalizes the graph with sorted adjacency lists.
func (b *Builder) Build() *Graph {
	adj := make([][]core.NodeID, b.n)
	for i, set := range b.adj {
		row := make([]core.NodeID, 0, len(set))
		for v := range set {
			row = append(row, v)
		}
		sort.Slice(row, func(a, c int) bool { return row[a] < row[c] })
		adj[i] = row
	}
	return &Graph{name: b.name, adj: adj}
}

// Name returns the generator-assigned name, e.g. "grid-8x8".
func (g *Graph) Name() string { return g.name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v core.NodeID) []core.NodeID { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v core.NodeID) int { return len(g.adj[v]) }

// MaxDegree returns Δ, the maximum degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// MinDegree returns the minimum degree.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, nb := range g.adj[1:] {
		if len(nb) < min {
			min = len(nb)
		}
	}
	return min
}

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v core.NodeID) bool {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Edges returns all edges as pairs with u < v.
func (g *Graph) Edges() [][2]core.NodeID {
	out := make([][2]core.NodeID, 0, g.M())
	for u, nb := range g.adj {
		for _, v := range nb {
			if core.NodeID(u) < v {
				out = append(out, [2]core.NodeID{core.NodeID(u), v})
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
