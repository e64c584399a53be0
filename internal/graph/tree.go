package graph

import (
	"fmt"

	"algossip/internal/core"
)

// Tree is a rooted spanning tree given by a parent array: Parent[v] is the
// parent of v, and Parent[Root] == NilNode. Spanning-tree gossip protocols
// (paper Section 2, "STP Gossip") produce exactly this structure, and TAG's
// Phase 2 runs algebraic gossip along it.
type Tree struct {
	Root   core.NodeID
	Parent []core.NodeID
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.Parent) }

// Validate checks that the parent array encodes a single tree spanning all
// n nodes, rooted at Root, with no cycles.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 {
		return fmt.Errorf("graph: empty tree")
	}
	if int(t.Root) < 0 || int(t.Root) >= n {
		return fmt.Errorf("graph: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != core.NilNode {
		return fmt.Errorf("graph: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	for v := 0; v < n; v++ {
		if core.NodeID(v) == t.Root {
			continue
		}
		p := t.Parent[v]
		if int(p) < 0 || int(p) >= n {
			return fmt.Errorf("graph: node %d has invalid parent %d", v, p)
		}
		// Walk up; a walk longer than n nodes means a cycle.
		u, steps := core.NodeID(v), 0
		for u != t.Root {
			u = t.Parent[u]
			steps++
			if u == core.NilNode {
				return fmt.Errorf("graph: node %d is not connected to root", v)
			}
			if steps > n {
				return fmt.Errorf("graph: cycle detected above node %d", v)
			}
		}
	}
	return nil
}

// Depths returns the depth of every node (root has depth 0).
func (t *Tree) Depths() []int {
	n := t.N()
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[t.Root] = 0
	var resolve func(v core.NodeID) int
	resolve = func(v core.NodeID) int {
		if depth[v] >= 0 {
			return depth[v]
		}
		depth[v] = resolve(t.Parent[v]) + 1
		return depth[v]
	}
	for v := 0; v < n; v++ {
		resolve(core.NodeID(v))
	}
	return depth
}

// Depth returns l_max, the maximum node depth.
func (t *Tree) Depth() int {
	max := 0
	for _, d := range t.Depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the diameter d(S) of the tree viewed as an undirected
// graph (longest path between any two nodes, in edges).
func (t *Tree) Diameter() int {
	return t.AsGraph().DiameterApprox() // double sweep is exact on trees
}

// AsGraph returns the undirected graph consisting of the tree edges.
func (t *Tree) AsGraph() *Graph {
	b := NewBuilder("tree", t.N())
	for v, p := range t.Parent {
		if p != core.NilNode {
			b.AddEdge(core.NodeID(v), p)
		}
	}
	return b.Build()
}
