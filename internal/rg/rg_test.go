package rg

import (
	"fmt"
	"testing"
	"testing/quick"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func TestCarveRejectsBadEps(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, -0.5, 1.5} {
		if _, err := Carve(g, nil, eps, nil); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestCarveEmptyAndSingleton(t *testing.T) {
	g, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 0 {
		t.Fatalf("empty graph produced %d clusters", c.K)
	}

	g1 := graph.Path(1)
	c, err = Carve(g1, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 1 || c.Assign[0] != 0 {
		t.Fatalf("singleton carving wrong: %+v", c)
	}
}

// checkInvariants validates the full weak-carving contract for a run.
func checkInvariants(t *testing.T, g *graph.Graph, nodes []int, eps float64) *cluster.Carving {
	t.Helper()
	c, err := Carve(g, nodes, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if nodes == nil {
		nodes = allNodes(n)
	}
	var alive []bool
	if len(nodes) != n {
		alive = make([]bool, n)
		for _, v := range nodes {
			alive[v] = true
		}
	}
	p := ParamsFor(n, eps)
	if err := cluster.CheckWeakCarving(g, alive, c, eps, p.MaxDepth, p.Congestion); err != nil {
		t.Fatalf("n=%d eps=%v: %v", n, eps, err)
	}
	return c
}

func TestCarveInvariantsAcrossFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path100", graph.Path(100)},
		{"cycle64", graph.Cycle(64)},
		{"grid10x10", graph.Grid(10, 10)},
		{"tree127", graph.BinaryTree(127)},
		{"star50", graph.Star(50)},
		{"complete32", graph.Complete(32)},
		{"gnp", graph.ConnectedGnp(150, 0.03, 1)},
		{"expander", graph.RandomRegularish(128, 4, 2)},
		{"subdivided", graph.SubdividedExpander(16, 4, 4, 3)},
		{"clusters", graph.ClusterGraph(5, 12, 0.4, 4)},
		{"disconnected", graph.DisjointUnion(graph.Path(20), graph.Cycle(30), graph.Star(10))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, eps := range []float64{0.5, 0.25} {
				checkInvariants(t, tt.g, nil, eps)
			}
		})
	}
}

func TestCarveOnSubsetLeavesRestUntouched(t *testing.T) {
	g := graph.Path(20)
	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	c, err := Carve(g, nodes, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 8; v < 20; v++ {
		if c.Assign[v] != cluster.Unclustered {
			t.Fatalf("node %d outside S was assigned %d", v, c.Assign[v])
		}
	}
	// At least (1-eps) of the subset survives.
	dead := 0
	for _, v := range nodes {
		if c.Assign[v] == cluster.Unclustered {
			dead++
		}
	}
	if float64(dead) > 0.5*float64(len(nodes))+1 {
		t.Fatalf("%d of %d subset nodes dead", dead, len(nodes))
	}
}

func TestCarveIsDeterministic(t *testing.T) {
	g := graph.ConnectedGnp(120, 0.04, 9)
	a, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Fatalf("K differs: %d vs %d", a.K, b.K)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("assign[%d] differs: %d vs %d", v, a.Assign[v], b.Assign[v])
		}
	}
}

func TestCarveChargesRounds(t *testing.T) {
	g := graph.ConnectedGnp(100, 0.05, 5)
	m := rounds.NewMeter()
	if _, err := Carve(g, nil, 0.5, m); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
	if m.Component("rg/propose") == 0 || m.Component("rg/congestion") == 0 {
		t.Fatalf("missing components: %s", m)
	}
}

func TestCarveCompleteGraphSingleCluster(t *testing.T) {
	// On K_n all nodes merge quickly; nobody should die because every
	// proposal set is large relative to cluster sizes early on.
	c := checkInvariants(t, graph.Complete(64), nil, 0.5)
	if c.DeadFraction(nil) > 0.5 {
		t.Fatalf("complete graph dead fraction %f", c.DeadFraction(nil))
	}
}

func TestParamsForMonotone(t *testing.T) {
	small := ParamsFor(64, 0.5)
	large := ParamsFor(4096, 0.5)
	if large.Bits <= small.Bits {
		t.Fatalf("bits not monotone: %d vs %d", small.Bits, large.Bits)
	}
	if large.MaxDepth <= small.MaxDepth {
		t.Fatalf("depth bound not monotone")
	}
	tight := ParamsFor(1024, 0.5)
	loose := ParamsFor(1024, 0.1)
	if loose.MaxDepth <= tight.MaxDepth {
		t.Fatalf("depth bound must grow as eps shrinks")
	}
	if p := ParamsFor(1, 0.5); p.Bits != 1 {
		t.Fatalf("n=1 bits = %d", p.Bits)
	}
}

func TestPropertyCarveInvariants(t *testing.T) {
	f := func(seedRaw uint8, nRaw uint8, epsRaw uint8) bool {
		n := 20 + int(nRaw)%120
		eps := 0.2 + float64(epsRaw%60)/100.0
		g := graph.ConnectedGnp(n, 0.05, int64(seedRaw))
		c, err := Carve(g, nil, eps, nil)
		if err != nil {
			return false
		}
		p := ParamsFor(n, eps)
		return cluster.CheckWeakCarving(g, nil, c, eps, p.MaxDepth, p.Congestion) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCarveDepthWithinRealizedBound(t *testing.T) {
	// The realized tree depth should be far below the worst-case bound on
	// benign graphs; this guards against accidental depth blowups.
	g := graph.Grid(12, 12)
	c, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ParamsFor(g.N(), 0.5)
	for i, tr := range c.Trees {
		if d := tr.Depth(); d > p.MaxDepth {
			t.Fatalf("cluster %d tree depth %d exceeds bound %d", i, d, p.MaxDepth)
		}
	}
}

func ExampleCarve() {
	g := graph.Grid(8, 8)
	c, _ := Carve(g, nil, 0.5, nil)
	fmt.Println(c.K > 0, c.DeadFraction(nil) <= 0.5)
	// Output: true true
}

// connectedRegularish returns the first connected RandomRegularish(n, d)
// drawn from seed, seed+1, ....
func connectedRegularish(n, d int, seed int64) *graph.Graph {
	for s := seed; ; s++ {
		if g := graph.RandomRegularish(n, d, s); graph.IsConnected(g, nil) {
			return g
		}
	}
}

// TestCarveFlatTreeInvariants checks the flat Steiner tree layout on rg's
// own output — root first, every parent before its children, every depth
// its parent's plus one — and that the depths are the ones the Meter was
// charged with: each tree's Depth() is its cluster's tracked maxDepth, and
// the last phase's rg/congestion charge is computed from the deepest of
// them.
func TestCarveFlatTreeInvariants(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"grid":     graph.Grid(30, 30),
		"expander": connectedRegularish(2000, 6, 1),
		"tree":     graph.BinaryTree(511),
	}
	for name, g := range inputs {
		st := newState(g, allNodes(g.N()), 0.5)
		charged := int64(0)
		for phase := 0; phase < st.b; phase++ {
			m := rounds.NewMeter()
			st.runPhase(phase, m)
			charged = m.Component("rg/congestion")/int64(phase+1) - 1
		}
		c := st.carving()
		maxTree := 0
		for cl, tr := range c.Trees {
			if err := tr.Validate(g); err != nil {
				t.Fatalf("%s: cluster %d: %v", name, cl, err)
			}
			if tr.Nodes[0] != tr.Root || tr.Parents[0] != -1 || tr.Depths[0] != 0 {
				t.Fatalf("%s: cluster %d: root %d is not first", name, cl, tr.Root)
			}
			pos := map[int]int{tr.Root: 0}
			for i := 1; i < len(tr.Nodes); i++ {
				j, ok := pos[tr.Parents[i]]
				if !ok {
					t.Fatalf("%s: cluster %d: node %d before its parent %d", name, cl, tr.Nodes[i], tr.Parents[i])
				}
				if tr.Depths[i] != tr.Depths[j]+1 {
					t.Fatalf("%s: cluster %d: node %d depth %d under parent depth %d", name, cl, tr.Nodes[i], tr.Depths[i], tr.Depths[j])
				}
				pos[tr.Nodes[i]] = i
			}
			if d, want := tr.Depth(), st.clusters[tr.Root].maxDepth; d != want {
				t.Fatalf("%s: cluster %d: Tree.Depth() %d, charged maxDepth %d", name, cl, d, want)
			}
			maxTree = max(maxTree, tr.Depth())
		}
		deepest := 0
		for _, l := range st.nodes {
			deepest = max(deepest, st.clusters[l].maxDepth)
		}
		if charged != int64(deepest) || int64(maxTree) > charged {
			t.Fatalf("%s: last phase charged depth %d, deepest cluster %d, deepest output tree %d", name, charged, deepest, maxTree)
		}
		if maxTree == 0 {
			t.Fatalf("%s: no cluster grew; the input does not exercise tree growth", name)
		}
	}
}

// BenchmarkCarveRG measures the weak carver alone on one high-diameter
// and one expander input.
func BenchmarkCarveRG(b *testing.B) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid60x60", graph.Grid(60, 60)},
		{"regularish5000", connectedRegularish(5000, 6, 1)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := Carve(in.g, nil, 0.5, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
