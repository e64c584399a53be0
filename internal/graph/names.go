package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// FamilyNames lists the topology families FromName understands.
func FamilyNames() []string {
	return []string{
		"line", "ring", "grid", "torus", "complete", "star", "bintree",
		"barbell", "lollipop", "cliquechain", "hypercube", "er", "randreg",
		"geometric", "pa",
	}
}

// FromName builds a topology of (approximately) n nodes from a family
// name. Random families draw from rng; deterministic families ignore it.
// Grid/torus round n down to a square, hypercube up to a power of two.
// The special family "file:<path>" loads a measured topology from an
// edge-list file via LoadEdgeList; n and rng are ignored (the file
// fixes the node count).
func FromName(name string, n int, rng *rand.Rand) (*Graph, error) {
	if path, ok := strings.CutPrefix(name, "file:"); ok {
		return LoadEdgeList(path)
	}
	if n < 2 {
		return nil, fmt.Errorf("graph: need at least 2 nodes, got %d", n)
	}
	switch name {
	case "line":
		return Line(n), nil
	case "ring":
		return Ring(n), nil
	case "grid":
		s := int(math.Sqrt(float64(n)))
		return Grid(s, s), nil
	case "torus":
		s := int(math.Sqrt(float64(n)))
		return Torus(s, s), nil
	case "complete":
		return Complete(n), nil
	case "star":
		return Star(n), nil
	case "bintree":
		return BinaryTree(n), nil
	case "barbell":
		return Barbell(n), nil
	case "lollipop":
		return Lollipop(n/2, n-n/2), nil
	case "cliquechain":
		return CliqueChain(4, (n+3)/4), nil
	case "hypercube":
		d := 1
		for 1<<d < n {
			d++
		}
		return Hypercube(d), nil
	case "er":
		return ErdosRenyi(n, 4/float64(n), rng), nil
	case "randreg":
		d := 4
		if d >= n {
			d = n - 1 // tiny graphs: the densest regular graph is K_n
		}
		return randomRegular(n, d, rng)
	case "geometric":
		// Radius a constant factor above the sqrt(ln n / n) connectivity
		// threshold; the stitcher covers the tail.
		r := 1.5 * math.Sqrt(math.Log(float64(n))/float64(n))
		return RandomGeometric(n, r, rng), nil
	case "pa":
		return PreferentialAttachment(n, 2, rng), nil
	default:
		return nil, fmt.Errorf("graph: unknown family %q (known: %v, or file:<path> for an edge-list file)", name, FamilyNames())
	}
}
