package graph

import (
	"strconv"

	"algossip/internal/core"
)

// BFS performs breadth-first search from root and returns, for every node,
// its distance from root (-1 if unreachable) and its BFS parent (NilNode for
// the root and unreachable nodes). The parent array is a shortest-path
// spanning tree rooted at root — exactly the tree T_n used in the proof of
// Theorem 1.
func (g *Graph) BFS(root core.NodeID) (dist []int, parent []core.NodeID) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]core.NodeID, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = core.NilNode
	}
	dist[root] = 0
	queue := make([]core.NodeID, 0, n)
	queue = append(queue, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// BFSTree returns the shortest-path spanning tree rooted at root.
// It panics if the graph is disconnected.
func (g *Graph) BFSTree(root core.NodeID) *Tree {
	dist, parent := g.BFS(root)
	for v, d := range dist {
		if d < 0 {
			panic("graph: BFSTree on a disconnected graph (node " +
				strconv.Itoa(v) + " unreachable)")
		}
	}
	return &Tree{Root: root, Parent: parent}
}

// Eccentricity returns the greatest BFS distance from v. It panics if the
// graph is disconnected.
func (g *Graph) Eccentricity(v core.NodeID) int {
	dist, _ := g.BFS(v)
	ecc := 0
	for u, d := range dist {
		if d < 0 {
			panic("graph: eccentricity on a disconnected graph (node " +
				strconv.Itoa(u) + " unreachable)")
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter D by running BFS from every node.
// O(n·m); fine for the simulation sizes used in experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		if e := g.Eccentricity(core.NodeID(v)); e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterApprox returns a lower bound on the diameter via a double BFS
// sweep (exact on trees), in O(m) time. Useful for large graphs where the
// exact O(n·m) computation is too slow.
func (g *Graph) DiameterApprox() int {
	dist, _ := g.BFS(0)
	far := core.NodeID(0)
	for v, d := range dist {
		if d > dist[far] {
			far = core.NodeID(v)
		}
	}
	return g.Eccentricity(far)
}
