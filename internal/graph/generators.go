package graph

import (
	"fmt"
	"math/rand/v2"

	"algossip/internal/core"
)

// Line returns the path graph P_n: 0-1-2-...-(n-1). Constant maximum degree
// 2, diameter n-1 — the paper's canonical "uniform AG is order optimal"
// topology (Table 2, row 1).
func Line(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("line-%d", n), n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(core.NodeID(i), core.NodeID(i+1))
	}
	return b.Build()
}

// Ring returns the cycle C_n. Constant maximum degree 2, diameter ⌊n/2⌋.
func Ring(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		b.AddEdge(core.NodeID(i), core.NodeID((i+1)%n))
	}
	return b.Build()
}

// Grid returns the rows x cols 2D grid. Maximum degree 4, diameter
// rows+cols-2 (Table 2, row 2 uses the √n x √n square grid).
func Grid(rows, cols int) *Graph {
	b := NewBuilder(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols)
	id := func(r, c int) core.NodeID { return core.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows x cols grid with wraparound edges. Maximum degree
// 4, vertex-transitive.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(fmt.Sprintf("torus-%dx%d", rows, cols), rows*cols)
	id := func(r, c int) core.NodeID { return core.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// Complete returns the complete graph K_n (diameter 1, Δ = n-1): the
// topology of Deb et al.'s original algebraic-gossip analysis.
func Complete(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("complete-%d", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(core.NodeID(i), core.NodeID(j))
		}
	}
	return b.Build()
}

// Star returns the star graph: node 0 connected to all others. Diameter 2,
// Δ = n-1.
func Star(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("star-%d", n), n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, core.NodeID(i))
	}
	return b.Build()
}

// BinaryTree returns the complete binary tree with n nodes (heap indexing:
// node i has children 2i+1 and 2i+2). Constant maximum degree 3, diameter
// Θ(log n) — Table 2, row 3.
func BinaryTree(n int) *Graph {
	return KAryTree(n, 2)
}

// KAryTree returns the complete k-ary tree with n nodes in heap order.
func KAryTree(n, k int) *Graph {
	if k < 1 {
		panic("graph: arity must be at least 1")
	}
	b := NewBuilder(fmt.Sprintf("%d-ary-tree-%d", k, n), n)
	for i := 1; i < n; i++ {
		b.AddEdge(core.NodeID(i), core.NodeID((i-1)/k))
	}
	return b.Build()
}

// Barbell returns the barbell graph: two cliques of ⌈n/2⌉ and ⌊n/2⌋ nodes
// joined by a single edge. It is the paper's worst case for uniform
// algebraic gossip (Ω(n²) rounds for all-to-all) and the showcase for TAG
// (Θ(n)) and for IS (large weak conductance despite the bottleneck).
// Nodes 0..⌈n/2⌉-1 form the left clique; the bridge is between the last
// left node and the first right node.
func Barbell(n int) *Graph {
	if n < 2 {
		panic("graph: barbell needs at least 2 nodes")
	}
	b := NewBuilder(fmt.Sprintf("barbell-%d", n), n)
	left := (n + 1) / 2
	for i := 0; i < left; i++ {
		for j := i + 1; j < left; j++ {
			b.AddEdge(core.NodeID(i), core.NodeID(j))
		}
	}
	for i := left; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(core.NodeID(i), core.NodeID(j))
		}
	}
	// The single bridge edge.
	if left < n {
		b.AddEdge(core.NodeID(left-1), core.NodeID(left))
	}
	return b.Build()
}

// Lollipop returns a clique of cliqueSize nodes with a path of pathLen
// additional nodes attached: another classic low-conductance topology.
func Lollipop(cliqueSize, pathLen int) *Graph {
	n := cliqueSize + pathLen
	b := NewBuilder(fmt.Sprintf("lollipop-%d+%d", cliqueSize, pathLen), n)
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			b.AddEdge(core.NodeID(i), core.NodeID(j))
		}
	}
	for i := cliqueSize; i < n; i++ {
		b.AddEdge(core.NodeID(i-1), core.NodeID(i))
	}
	return b.Build()
}

// CliqueChain returns c cliques of size m arranged in a chain, consecutive
// cliques joined by a single edge. For constant c this family has large
// weak conductance Φ_c but poor (classic) conductance — the graphs Section 6
// of the paper targets. n = c*m.
func CliqueChain(c, m int) *Graph {
	if c < 1 || m < 1 {
		panic("graph: clique chain needs c >= 1 and m >= 1")
	}
	n := c * m
	b := NewBuilder(fmt.Sprintf("cliquechain-%dx%d", c, m), n)
	for q := 0; q < c; q++ {
		base := q * m
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				b.AddEdge(core.NodeID(base+i), core.NodeID(base+j))
			}
		}
		if q > 0 {
			b.AddEdge(core.NodeID(base-1), core.NodeID(base))
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube with 2^d nodes: degree d,
// diameter d — a log-degree, log-diameter benchmark.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(fmt.Sprintf("hypercube-%d", d), n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			b.AddEdge(core.NodeID(v), core.NodeID(v^(1<<bit)))
		}
	}
	return b.Build()
}

// ErdosRenyi returns a connected G(n, p) sample: edges are drawn i.i.d.
// with probability p, and if the sample is disconnected the components are
// stitched with uniformly random edges (documented deviation to guarantee
// the connectivity all theorems assume).
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(fmt.Sprintf("er-%d-p%.3f", n, p), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(core.NodeID(i), core.NodeID(j))
			}
		}
	}
	return stitchConnected(b.Build(), rng)
}

// stitchConnected repairs a possibly disconnected sample by repeatedly
// adding an edge between a random unreached and a random reached node
// (BFS from 0) until the graph is connected. Already connected graphs are
// returned unchanged, with no randomness drawn.
func stitchConnected(g *Graph, rng *rand.Rand) *Graph {
	for {
		dist, _ := g.BFS(0)
		var reached, unreached []core.NodeID
		for v, d := range dist {
			if d >= 0 {
				reached = append(reached, core.NodeID(v))
			} else {
				unreached = append(unreached, core.NodeID(v))
			}
		}
		if len(unreached) == 0 {
			return g
		}
		b2 := newBuilderFrom(g.Name(), g)
		b2.AddEdge(unreached[rng.IntN(len(unreached))], reached[rng.IntN(len(reached))])
		g = b2.Build()
	}
}

// RandomRegular returns a (near-)d-regular connected graph on n nodes via
// the pairing model with retries; if pairing repeatedly fails, leftover
// stubs are dropped, so a few vertices may have degree d-1. n*d should be
// even for an exact construction.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if d >= n {
		panic("graph: degree must be < n")
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := tryPairing(n, d, rng)
		if ok && g.IsConnected() {
			return g
		}
	}
	// Fallback: a ring plus random chords keeps it connected and near-regular.
	b := NewBuilder(fmt.Sprintf("randreg-%d-d%d", n, d), n)
	for i := 0; i < n; i++ {
		b.AddEdge(core.NodeID(i), core.NodeID((i+1)%n))
	}
	for extra := 0; extra < (d-2)*n/2; extra++ {
		b.AddEdge(core.NodeID(rng.IntN(n)), core.NodeID(rng.IntN(n)))
	}
	return b.Build()
}

func tryPairing(n, d int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]core.NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, core.NodeID(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := NewBuilder(fmt.Sprintf("randreg-%d-d%d", n, d), n)
	seen := make(map[[2]core.NodeID]bool)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		key := [2]core.NodeID{min(u, v), max(u, v)}
		if seen[key] {
			return nil, false
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build(), true
}

// RandomGeometric returns a connected random geometric graph: n points
// drawn uniformly in the unit square, with an edge between every pair at
// Euclidean distance at most radius — the standard model for wireless /
// sensor deployments. As with ErdosRenyi, a disconnected sample is
// stitched with random edges (documented deviation so the theorems'
// connectivity assumption always holds).
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	if radius <= 0 {
		panic("graph: geometric radius must be positive")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b := NewBuilder(fmt.Sprintf("geo-%d-r%.2f", n, radius), n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(core.NodeID(i), core.NodeID(j))
			}
		}
	}
	return stitchConnected(b.Build(), rng)
}

// PreferentialAttachment returns a Barabási–Albert scale-free graph: the
// first m+1 nodes form a clique, and every later node attaches m edges
// to distinct existing nodes drawn proportionally to degree. The result
// is connected by construction with exactly m(m+1)/2 + (n-m-1)·m edges.
// It is also the stabilized topology of the grow-then-stabilize dynamic
// schedule (NewGrow).
func PreferentialAttachment(n, m int, rng *rand.Rand) *Graph {
	if m < 1 {
		panic("graph: attachment degree must be positive")
	}
	if n <= m+1 {
		g := Complete(n)
		return newBuilderFrom(fmt.Sprintf("pa-%d-m%d", n, m), g).Build()
	}
	b := NewBuilder(fmt.Sprintf("pa-%d-m%d", n, m), n)
	m0 := m + 1
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			b.AddEdge(core.NodeID(i), core.NodeID(j))
		}
	}
	for j, targets := range paTargets(n, m, rng) {
		for _, t := range targets {
			b.AddEdge(core.NodeID(j), t)
		}
	}
	return b.Build()
}

// paTargets returns, for each joining node j in m+1..n-1, the m distinct
// existing nodes it attaches to under preferential attachment (sampling
// proportional to degree+1 via the repeated-nodes list). Entries below
// m+1 are nil — those nodes belong to the initial clique.
func paTargets(n, m int, rng *rand.Rand) [][]core.NodeID {
	m0 := m + 1
	out := make([][]core.NodeID, n)
	// pool holds each joined node once per unit of (degree+1), so a
	// uniform draw from it is the preferential-attachment distribution.
	pool := make([]core.NodeID, 0, 2*m*n)
	for v := 0; v < m0; v++ {
		for i := 0; i < m0; i++ { // clique degree m plus the +1 smoothing
			pool = append(pool, core.NodeID(v))
		}
	}
	for j := m0; j < n; j++ {
		chosen := make(map[core.NodeID]bool, m)
		targets := make([]core.NodeID, 0, m)
		for len(targets) < m {
			t := pool[rng.IntN(len(pool))]
			if chosen[t] {
				continue // resample until the m targets are distinct
			}
			chosen[t] = true
			targets = append(targets, t)
		}
		for _, t := range targets {
			pool = append(pool, t)
		}
		for i := 0; i < m+1; i++ {
			pool = append(pool, core.NodeID(j))
		}
		out[j] = targets
	}
	return out
}

// newBuilderFrom returns a Builder pre-loaded with g's edges under a new
// name — the copy-and-modify entry point the dynamic schedules and
// renaming generators share.
func newBuilderFrom(name string, g *Graph) *Builder {
	b := NewBuilder(name, g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return b
}
