package strongdecomp

import "testing"

func TestBallCarveEdgesFacade(t *testing.T) {
	g := CycleGraph(512)
	ec, err := BallCarveEdges(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEdgeCarving(g, ec, 0.5, -1); err != nil {
		t.Fatal(err)
	}
	for v, cl := range ec.Assign {
		if cl == Unclustered {
			t.Fatalf("edge carving removed node %d", v)
		}
	}
}

func TestMISAndColoringFacade(t *testing.T) {
	g := GridGraph(12, 12)
	d, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter()
	mis, err := MIS(g, d, WithMeter(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, mis); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() == 0 {
		t.Fatal("MIS charged no schedule cost")
	}
	colorOf, err := ColorGraph(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, colorOf, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	if ScheduleCost(g, d) <= 0 {
		t.Fatal("non-positive schedule cost")
	}
}

func TestMISMatchesAllAlgorithms(t *testing.T) {
	// The template works with any valid decomposition, deterministic or
	// randomized — a cross-algorithm integration test.
	g := CycleGraph(256)
	for _, algo := range []string{"chang-ghaffari", "chang-ghaffari-improved", "mpx", "sequential"} {
		d, err := Decompose(g, WithAlgorithmName(algo), WithSeed(3))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		mis, err := MIS(g, d)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := VerifyMIS(g, mis); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}
