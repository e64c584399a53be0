package graph

// The CSR Graph against the map-per-node Builder it replaced, and the
// topologies that Builder produced, pinned by digest. Every digest below
// was recorded with the map Builder, so a match is byte identity with
// it, not with the code under test.

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"algossip/internal/core"
)

// mapBuilder is the per-node-map Builder the CSR Builder replaced, kept
// as the oracle: a set per row, each row sorted on Build.
type mapBuilder struct {
	name string
	adj  []map[core.NodeID]struct{}
}

func newMapBuilder(name string, n int) *mapBuilder {
	adj := make([]map[core.NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[core.NodeID]struct{})
	}
	return &mapBuilder{name: name, adj: adj}
}

func (b *mapBuilder) AddEdge(u, v core.NodeID) {
	if u == v {
		return
	}
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
}

// rows returns the sorted adjacency rows the map Builder's Build held.
func (b *mapBuilder) rows() [][]core.NodeID {
	out := make([][]core.NodeID, len(b.adj))
	for i, set := range b.adj {
		row := make([]core.NodeID, 0, len(set))
		for v := range set {
			row = append(row, v)
		}
		slices.Sort(row)
		out[i] = row
	}
	return out
}

// sameAsRows fails t unless g holds exactly the oracle's rows, and every
// Neighbors slice is capped at its row.
func sameAsRows(t *testing.T, g *Graph, name string, want [][]core.NodeID) {
	t.Helper()
	if g.Name() != name || g.N() != len(want) {
		t.Fatalf("got %s with %d nodes, want %s with %d", g.Name(), g.N(), name, len(want))
	}
	m := 0
	for v, row := range want {
		nb := g.Neighbors(core.NodeID(v))
		if !slices.Equal(nb, row) || g.Degree(core.NodeID(v)) != len(row) {
			t.Fatalf("%s: row %d = %v, want %v", name, v, nb, row)
		}
		if cap(nb) != len(nb) {
			t.Fatalf("%s: row %d has capacity %d past its %d entries", name, v, cap(nb), len(nb))
		}
		m += len(row)
	}
	if g.M() != m/2 {
		t.Fatalf("%s: M = %d, want %d", name, g.M(), m/2)
	}
}

// TestBuilderMatchesMapOracle feeds random edge multisets — repeats,
// both orientations, self-loops, isolated nodes — to both Builders.
func TestBuilderMatchesMapOracle(t *testing.T) {
	rng := core.NewRand(7)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(40)
		b, o := NewBuilder("multiset", n), newMapBuilder("multiset", n)
		for range rng.IntN(4*n*n/3 + 1) {
			u, v := core.NodeID(rng.IntN(n)), core.NodeID(rng.IntN(n))
			b.AddEdge(u, v)
			o.AddEdge(u, v)
		}
		sameAsRows(t, b.Build(), "multiset", o.rows())
	}
}

// TestFamiliesMatchMapOracle rebuilds every FromName family's edges,
// shuffled, doubled and reversed, through both Builders.
func TestFamiliesMatchMapOracle(t *testing.T) {
	rng := core.NewRand(8)
	for _, fam := range FamilyNames() {
		for _, n := range []int{2, 3, 5, 16, 33, 100} {
			g, err := FromName(fam, n, core.NewRand(core.SplitSeed(1, 999)))
			if err != nil {
				t.Fatal(err)
			}
			edges := g.Edges()
			for _, e := range g.Edges() {
				edges = append(edges, [2]core.NodeID{e[1], e[0]}, [2]core.NodeID{e[0], e[0]})
			}
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			b, o := NewBuilder(g.Name(), g.N()), newMapBuilder(g.Name(), g.N())
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
				o.AddEdge(e[0], e[1])
			}
			rows := o.rows()
			sameAsRows(t, b.Build(), g.Name(), rows)
			sameAsRows(t, g, g.Name(), rows)
		}
	}
}

// TestFilterEdgesMatchesMapOracle holds the schedules' filter to a map
// Builder fed the kept edges in Edges() order.
func TestFilterEdgesMatchesMapOracle(t *testing.T) {
	for _, fam := range []string{"randreg", "complete", "barbell", "er", "star"} {
		base, err := FromName(fam, 40, core.NewRand(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{0, 0.1, 0.5, 1} {
			coins, oracleCoins := core.NewRand(3), core.NewRand(3)
			got := filterEdges(base, func([2]core.NodeID) bool { return coins.Float64() >= rate })
			o := newMapBuilder(base.Name(), base.N())
			for _, e := range base.Edges() {
				if oracleCoins.Float64() >= rate {
					o.AddEdge(e[0], e[1])
				}
			}
			sameAsRows(t, got, base.Name(), o.rows())
		}
	}
}

// edgesDigest is the sha256 of g's Edges(), one "u v" line per edge.
func edgesDigest(g *Graph) string {
	h := sha256.New()
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d %d\n", e[0], e[1])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRandomRegularDigests pins the randreg graphs the benchmarks and
// BENCH_SIM.json run on (graph seeds SplitSeed(1, 999), SplitSeed(77,
// 999)), recorded with the map Builder and rng.Shuffle.
func TestRandomRegularDigests(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed uint64
		want string
	}{
		{16, 1, "dfdb3ccaea4a5366e8300547ca2cab546659dfc8790548676b1221195524c443"},
		{16, 77, "83c8cf42c75a1ea1ee4442036ad766fcc16d03ca527a98a43508a9a1e4f1193c"},
		{32, 1, "d552e43e09c7bdeb358f3e9898a40f55b54251377994068b72e8bf2f063c9d43"},
		{32, 77, "a37a4cb645b4e4d25c7991b7d7fcbfe0bdd41f742c8204478989fc09b0b03d99"},
		{1024, 1, "9ff1147bee2ddf38fab776e2be7196335d7272168800c254426f54b4c7401d7b"},
		{1024, 77, "3b387b057624835d4d7ce45b829b444080644bda319703098fe57de6e1b6a5d4"},
		{4096, 1, "0be62032bdf1d8c215942d7f107f185871c6e6c15ac0dbd4297967f628443917"},
		{4096, 77, "479aeb7e550eaed0c42cdc172f4e8b9bf1780377d37cd93aa62d429d09c1bf46"},
	} {
		g, err := FromName("randreg", c.n, core.NewRand(core.SplitSeed(c.seed, 999)))
		if err != nil {
			t.Fatal(err)
		}
		if got := edgesDigest(g); got != c.want {
			t.Errorf("%s seed %d: Edges() digest %s, want %s", g.Name(), c.seed, got, c.want)
		}
	}
}

// TestFamilyDigests pins every FromName family at six sizes (graph seed
// SplitSeed(1, 999)), recorded with the map Builder.
func TestFamilyDigests(t *testing.T) {
	for _, c := range []struct {
		family     string
		n          int
		name, want string
	}{
		{"line", 2, "line-2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"line", 3, "line-3", "8ba65ee1bbe8297e30cab4c5fc9b62a8caa0dbe7b89298edf1da2609beb24ae1"},
		{"line", 5, "line-5", "723eee12f244bc1bd1e4648685d613233d8b31a2ee280f5d2837c79c28ca6842"},
		{"line", 16, "line-16", "aaa94d69fb350c77e2c857d38394e85d02156fc60398949722af48bc084e5968"},
		{"line", 33, "line-33", "1d9341fd8bf25c37bbeb385c51f4a83e692a9532c1289931beb1b1cb0da40bb4"},
		{"line", 100, "line-100", "a6624ffcb84b9ec7126998bac54e05d0580ad2f3dd9de510d8bbc43927f82d23"},
		{"ring", 2, "ring-2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"ring", 3, "ring-3", "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af"},
		{"ring", 5, "ring-5", "0a7e9d776abf75b1d3648a8894d3abf7d461518b6cc2e3e0f85b100e060fa2cc"},
		{"ring", 16, "ring-16", "54a8dbe9a6e48fe564c6fd3899b193008d791072ab4e47476ae5849ff3e95a2c"},
		{"ring", 33, "ring-33", "63a24e526fe66a977f170376595faca0602f74fe47fbd194dfd7319527c492e0"},
		{"ring", 100, "ring-100", "9b184bc027d767e4aa2669000ae25b29de7958f43adcb1e3586eb07864fdb1dc"},
		{"grid", 2, "grid-1x1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"grid", 3, "grid-1x1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"grid", 5, "grid-2x2", "40bdbdd46433ff9550b65cd10c46c135b2296698ed082b0e2e5b6932279c8458"},
		{"grid", 16, "grid-4x4", "de01bf3ccb1e451e60432db8ebc64c2017cf4e95baca1aa08ba01cdad467f4d9"},
		{"grid", 33, "grid-5x5", "6d04d1fc2aaabab47fcedd8a4cc036e870cd8d93acba4bd157bb51b406855cd6"},
		{"grid", 100, "grid-10x10", "45c1c694014014f1ab2857b0ab75ee77d75e3a266f26ce569fd288b6b2103e95"},
		{"torus", 2, "torus-1x1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"torus", 3, "torus-1x1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"torus", 5, "torus-2x2", "40bdbdd46433ff9550b65cd10c46c135b2296698ed082b0e2e5b6932279c8458"},
		{"torus", 16, "torus-4x4", "f6f871e6171891c6f52fc2b32a9a119d745a3fa2f1159137b446ffa756d6201b"},
		{"torus", 33, "torus-5x5", "fa15a655724a1723eded0f4a3b328f3055a215b995ca3839c33ca4fe7f87789a"},
		{"torus", 100, "torus-10x10", "5008742c5ae7faa4318b74208a2b30a137c5672d5a96d03458cb428a9b32365e"},
		{"complete", 2, "complete-2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"complete", 3, "complete-3", "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af"},
		{"complete", 5, "complete-5", "b9142af063584e79deb29bd0a7652fe179ae720fec103607a884c6bb174ca606"},
		{"complete", 16, "complete-16", "1be43d0887840ab427e2fdc56a0fd7e7c4948415308f5de920b3ee47155a6c9e"},
		{"complete", 33, "complete-33", "1ef7012d1856dfc4d3774ef04d2767308b7d5a2ddd1ffa0f7d027c48be9bac48"},
		{"complete", 100, "complete-100", "8d01f7ddc32351bdd5949023ce44d09c1a2895eecc770fb5fbbf3ee589886565"},
		{"star", 2, "star-2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"star", 3, "star-3", "3b7c000be90d416f3127b6239929fe5c4b2cc7cd5c9279e503cdd4132c94eec4"},
		{"star", 5, "star-5", "9ee64e6554036144866a62c6e71b133a065fb3852ecb402be838dc29cced81ac"},
		{"star", 16, "star-16", "67f5090b35cceed1a76a0107046ead03aff11135a71ddd3a8ab9c233c8c341dc"},
		{"star", 33, "star-33", "19f8d74909aa473d98fbdd2bb81f40529407736a571f52a4849a0e2dac2431b7"},
		{"star", 100, "star-100", "8791883f0e6afbd10b69d09a109120818c5704213e50246f6a7d2c9c21aabdc4"},
		{"bintree", 2, "2-ary-tree-2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"bintree", 3, "2-ary-tree-3", "3b7c000be90d416f3127b6239929fe5c4b2cc7cd5c9279e503cdd4132c94eec4"},
		{"bintree", 5, "2-ary-tree-5", "339787c8c88fe40f748dae62b6d691cf06f4b170f393dc0ad16c3ee206466854"},
		{"bintree", 16, "2-ary-tree-16", "9ff5c34c25792da1a8357bbda169857d32c9f8fa9c86ebd9beaf5a907902cc3f"},
		{"bintree", 33, "2-ary-tree-33", "debc019112f32229d3c8a4141f7393862437d9e1925a6462aaa5ae8ddd131c66"},
		{"bintree", 100, "2-ary-tree-100", "fe1b7f71809178dbed811912c1d38411e871d42f7cd0801fb97511531bb16d26"},
		{"barbell", 2, "barbell-2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"barbell", 3, "barbell-3", "8ba65ee1bbe8297e30cab4c5fc9b62a8caa0dbe7b89298edf1da2609beb24ae1"},
		{"barbell", 5, "barbell-5", "bdf2c3029b9d826a8b4a873ff9adb56ca5a557ac905046712666f5c761a2a4b5"},
		{"barbell", 16, "barbell-16", "eaa3a044d85ac3ee94be5c401117dd31208f4fe76902528a5a17bbccc78d67d9"},
		{"barbell", 33, "barbell-33", "7f5a3085f199f9bc0f3a946d2ad85d890afdfcc192b4beb6636145f6c26d539b"},
		{"barbell", 100, "barbell-100", "a43fa714e8b8c3efb059edf315fbc55def8042252e6c7c78abee2d3e42735fb3"},
		{"lollipop", 2, "lollipop-1+1", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"lollipop", 3, "lollipop-1+2", "8ba65ee1bbe8297e30cab4c5fc9b62a8caa0dbe7b89298edf1da2609beb24ae1"},
		{"lollipop", 5, "lollipop-2+3", "723eee12f244bc1bd1e4648685d613233d8b31a2ee280f5d2837c79c28ca6842"},
		{"lollipop", 16, "lollipop-8+8", "9daf30ab2fcbc628dc224d2e69e1a8537ee60cbd23f767bdede59c4000076c4c"},
		{"lollipop", 33, "lollipop-16+17", "a8b84237a8c669c68a156fae6d3915cf396ed4e9c53fe9b1a8bb07da45d56b17"},
		{"lollipop", 100, "lollipop-50+50", "8e9d14fd8facbe9cbaa5dc73036f358cf7ea7a3c665ecb0ff422e360be32234f"},
		{"cliquechain", 2, "cliquechain-4x1", "554681d70473ff0a507bcf15a30525e74c75790ace5a26e11eb57d9847defe29"},
		{"cliquechain", 3, "cliquechain-4x1", "554681d70473ff0a507bcf15a30525e74c75790ace5a26e11eb57d9847defe29"},
		{"cliquechain", 5, "cliquechain-4x2", "2284ee83b71476a0e826a24b7d8325f25404f35c30d9598835d2d94c9dc1972f"},
		{"cliquechain", 16, "cliquechain-4x4", "143530a04400935f9d4b6bed1b91d846894d667a954b8630de44874097849c89"},
		{"cliquechain", 33, "cliquechain-4x9", "b84b218aa34acc806ab8669a64723590beeef9412355e60d189a0e843d3b0133"},
		{"cliquechain", 100, "cliquechain-4x25", "9f28c7327c0e09246d89b1b1e88f783066cc933e4d35435977659d8beef15f0a"},
		{"hypercube", 2, "hypercube-1", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"hypercube", 3, "hypercube-2", "40bdbdd46433ff9550b65cd10c46c135b2296698ed082b0e2e5b6932279c8458"},
		{"hypercube", 5, "hypercube-3", "53674a178d5181f4c3e7cab223b16d4f1f1203b8febc7eeebc9bd0a7aea09b10"},
		{"hypercube", 16, "hypercube-4", "4b72796373ee4d6c0785d2315eb1eb87298a6387283966fa928cba3da3b55da7"},
		{"hypercube", 33, "hypercube-6", "4e7ccb3b82a3dc04a04311e1bf12701f45dffa091aa699cbd5fb1727a7c55421"},
		{"hypercube", 100, "hypercube-7", "a5b5316efc2069199ff991b172425564bbec75c35e9516b0bb84ca99c6f50b19"},
		{"er", 2, "er-2-p2.000", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"er", 3, "er-3-p1.333", "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af"},
		{"er", 5, "er-5-p0.800", "8403653253cb38d8ccdb32e02fd0c53538d3c220e12f7c3ef15eab321a46b18b"},
		{"er", 16, "er-16-p0.250", "f2d82623fe4203c5fdc8c82eb820753015ece6eb9ad9c92dacd04338fa0cb2f4"},
		{"er", 33, "er-33-p0.121", "f595b4c82175a4a414aefc5909890754f5fa93da167f8bcc70ee1cc57df4402b"},
		{"er", 100, "er-100-p0.040", "dd8d176920ffdb593887c94c2692f2923f9d8eeebabb48c9f634cf6ea5466bff"},
		{"randreg", 2, "randreg-2-d1", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"randreg", 3, "randreg-3-d2", "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af"},
		{"randreg", 5, "randreg-5-d4", "b9142af063584e79deb29bd0a7652fe179ae720fec103607a884c6bb174ca606"},
		{"randreg", 16, "randreg-16-d4", "dfdb3ccaea4a5366e8300547ca2cab546659dfc8790548676b1221195524c443"},
		{"randreg", 33, "randreg-33-d4", "b30cc0e68ce257fda617f60522466fa07fd381e1466b4d90d8846c3a362b748c"},
		{"randreg", 100, "randreg-100-d4", "f8841fad68681148f0728d2ade768c8ccca6921802fb220cbf4cd354a0c1f96a"},
		{"geometric", 2, "geo-2-r0.88", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"geometric", 3, "geo-3-r0.91", "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af"},
		{"geometric", 5, "geo-5-r0.85", "b9142af063584e79deb29bd0a7652fe179ae720fec103607a884c6bb174ca606"},
		{"geometric", 16, "geo-16-r0.62", "44a06855180475210114b27d0d8094e1ed48610a3b5535297edaaa33b9e288a7"},
		{"geometric", 33, "geo-33-r0.49", "3eaa8330953aec1c0737a4933c7832d4e1e2a468a1030e9261b58c169428bad8"},
		{"geometric", 100, "geo-100-r0.32", "185583eb7f49a176dc47b6c7414143994885c9e3710ab791d4de2c82eb587243"},
		{"pa", 2, "pa-2-m2", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"},
		{"pa", 3, "pa-3-m2", "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af"},
		{"pa", 5, "pa-5-m2", "cd98af432f6e87ffba41df108ad207d3e79c7924e72efc2c43b0a89f61cac1e3"},
		{"pa", 16, "pa-16-m2", "bf4b148506b73f778cc7b12c062bc66403c44d43253a8fa75aaacad2d80ed153"},
		{"pa", 33, "pa-33-m2", "2d7a67fe5aef532d46d91ddd5a5de62fed8e18b410a9c6df890afb532ca22dc2"},
		{"pa", 100, "pa-100-m2", "b0010f75d19f991c359d93567176b419e36b88ffc1cb1d05afbc7de30ee89db3"},
	} {
		g, err := FromName(c.family, c.n, core.NewRand(core.SplitSeed(1, 999)))
		if err != nil {
			t.Fatal(err)
		}
		if got := edgesDigest(g); g.Name() != c.name || got != c.want {
			t.Errorf("%s n=%d: %s %s, want %s %s", c.family, c.n, g.Name(), got, c.name, c.want)
		}
	}
}

// TestScheduleDigests pins forty rounds of every Dynamic schedule over
// randreg-64, recorded with the map Builder.
func TestScheduleDigests(t *testing.T) {
	base, err := FromName("randreg", 64, core.NewRand(core.SplitSeed(1, 999)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"randreg-64-d4+edgefail-p0.20":   "9ddf42b51a9443caba8aa776128abe5d21353d58ed4901c4919e4869407ab6b7",
		"randreg-64-d4+burst-p0.30-t3/6": "e09dc40b48e3df19b7d035331b04d74f69d27130ce6a65a9ef6fa86f211d2beb",
		"randreg-64-d4+rewire-f0.25-t4":  "5b675e7d0a86c431b5f76d02bf1e2ea90f5bc9d1bc873e88dc726caa41993d5c",
		"randreg-64-d4+churn-p0.20-t3":   "d790e3d05be0b079f010a4b49f0ed746824c9f4f253b6fb83672bc779e0c8719",
		"grow-pa-40-m2-t2":               "7cdb8b4fbb532f53516fa1dcbddb1875f168f311a76ff98776ae329f26c359d8",
	}
	for _, s := range []Dynamic{
		NewEdgeFailures(base, 0.2, 5),
		NewBurstFailures(base, 0.3, 6, 3, 5),
		NewRewire(base, 0.25, 4, 5),
		NewChurn(base, 0.2, 3, 5),
		NewGrow(40, 2, 2, 5),
	} {
		h := sha256.New()
		for r := 0; r < 40; r++ {
			g := s.At(r)
			fmt.Fprintf(h, "%s %d\n", g.Name(), g.N())
			for _, e := range g.Edges() {
				fmt.Fprintf(h, "%d %d\n", e[0], e[1])
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[s.Name()] {
			t.Errorf("%s: digest %s, want %s", s.Name(), got, want[s.Name()])
		}
	}
}

// TestRandomRegularIsRegular: every randreg FromName builds is 4-regular
// and connected. Under the old 200-attempt cap, 113 of these seeds at
// n = 16 (56, 22 and 27 at the larger sizes) fell back to a ring with
// random chords under the randreg name.
func TestRandomRegularIsRegular(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	for _, n := range []int{16, 32, 256, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			for seed := range seeds {
				g, err := FromName("randreg", n, core.NewRand(core.SplitSeed(uint64(seed), 999)))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if g.MinDegree() != 4 || g.MaxDegree() != 4 || g.M() != 2*n || !g.IsConnected() {
					t.Fatalf("seed %d: %s has degrees %d..%d, m = %d, connected %v",
						seed, g.Name(), g.MinDegree(), g.MaxDegree(), g.M(), g.IsConnected())
				}
			}
		})
	}
}

// TestRandomRegularRefusesDisconnectedDegrees: d < 2 has no connected
// d-regular graph past n = d+1, so FromName's error path (and
// RandomRegular's panic) say so instead of labelling another graph.
func TestRandomRegularRefusesDisconnectedDegrees(t *testing.T) {
	if _, err := randomRegular(6, 1, core.NewRand(1)); err == nil {
		t.Fatal("randomRegular(6, 1) built a graph")
	}
	if g, err := randomRegular(2, 1, core.NewRand(1)); err != nil || g.M() != 1 {
		t.Fatalf("randomRegular(2, 1) = %v, %v; want K_2", g, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("RandomRegular(6, 1) did not panic")
		}
	}()
	RandomRegular(6, 1, core.NewRand(1))
}

// BenchmarkRandomRegular builds the 4-regular graph the benchmarks use
// at each size (graph seed SplitSeed(1, 999)): about 43 pairings drawn
// and checked, one CSR built.
func BenchmarkRandomRegular(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				RandomRegular(n, 4, core.NewRand(core.SplitSeed(1, 999)))
			}
		})
	}
}

// BenchmarkEdgeFailureAt is one step of an edge-failure schedule: a
// fresh round's coins drawn and the surviving CSR filtered from the base.
func BenchmarkEdgeFailureAt(b *testing.B) {
	base := RandomRegular(256, 4, core.NewRand(core.SplitSeed(77, 999)))
	b.Run("randreg/n=256", func(b *testing.B) {
		s := NewEdgeFailures(base, 0.1, 5)
		b.ReportAllocs()
		round := 0
		for b.Loop() {
			round++
			s.At(round)
		}
	})
}
