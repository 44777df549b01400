package strongdecomp

import (
	"fmt"
	"testing"
)

func TestBallCarveAllAlgorithms(t *testing.T) {
	g := ConnectedGnpGraph(120, 0.04, 3)
	for _, algo := range []string{"chang-ghaffari", "chang-ghaffari-improved", "mpx", "sequential"} {
		t.Run(algo, func(t *testing.T) {
			c, err := BallCarve(g, 0.5, WithAlgorithmName(algo), WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCarving(g, c, 0.5, -1); err != nil {
				t.Fatal(err)
			}
			// All listed algorithms produce connected clusters.
			if d := MaxStrongDiameter(g, c.Members()); d < 0 {
				t.Fatal("disconnected cluster from strong carver")
			}
		})
	}
	// Linial–Saks is weak-diameter: verify without the connectivity demand.
	c, err := BallCarve(g, 0.5, WithAlgorithmName("linial-saks"), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCarving(g, c, 0.5, -1); err != nil {
		t.Fatal(err)
	}
	if d := MaxWeakDiameter(g, c.Members()); d < 0 {
		t.Fatal("weakly disconnected Linial-Saks cluster")
	}
}

func TestDecomposeAllAlgorithms(t *testing.T) {
	g := GridGraph(10, 10)
	for _, algo := range []string{"chang-ghaffari", "chang-ghaffari-improved", "mpx", "sequential"} {
		t.Run(algo, func(t *testing.T) {
			d, err := Decompose(g, WithAlgorithmName(algo), WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyDecomposition(g, d, -1, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWithMeterAccumulates(t *testing.T) {
	g := GridGraph(8, 8)
	m := NewMeter()
	if _, err := Decompose(g, WithMeter(m)); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() == 0 {
		t.Fatal("meter empty after metered run")
	}
}

func TestWithNodesRestricts(t *testing.T) {
	g := PathGraph(20)
	c, err := BallCarve(g, 0.5, WithNodes([]int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	for v := 5; v < 20; v++ {
		if c.Assign[v] != Unclustered {
			t.Fatalf("node %d outside subset clustered", v)
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	g := PathGraph(4)
	if _, err := BallCarve(g, 0.5, WithAlgorithmName("algorithm(99)")); err == nil {
		t.Fatal("unknown algorithm accepted by BallCarve")
	}
	if _, err := Decompose(g, WithAlgorithmName("algorithm(99)")); err == nil {
		t.Fatal("unknown algorithm accepted by Decompose")
	}
}

func TestNewGraphErrors(t *testing.T) {
	if _, err := NewGraph(2, [][2]int{{0, 5}}); err == nil {
		t.Fatal("invalid edge accepted")
	}
}

func ExampleDecompose() {
	g, _ := NewGraph(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	d, _ := Decompose(g)
	fmt.Println(VerifyDecomposition(g, d, -1, true) == nil)
	// Output: true
}
