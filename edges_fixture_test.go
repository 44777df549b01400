package strongdecomp

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"strongdecomp/internal/graph"
)

// edgeFixture pins the full output of the edge-version ball carving on one
// graph at one eps: the node assignment, the cluster centers and the sorted
// cut edge set.
type edgeFixture struct {
	Graph   string   `json:"graph"`
	Eps     float64  `json:"eps"`
	K       int      `json:"k"`
	Assign  []int    `json:"assign"`
	Centers []int    `json:"centers"`
	Cut     [][2]int `json:"cut"`
}

const edgeFixturePath = "testdata/edge_fixtures.json"

// edgeFixtureCases are the recorded (graph, eps) runs. On the fixture graph
// every component becomes one uncut cluster at both eps, so a long cycle,
// which the carving does cut, covers the cut-edge path.
var edgeFixtureCases = []struct {
	name string
	g    func() *graph.Graph
	eps  float64
}{
	{"fixture", fixtureGraph, 0.1},
	{"fixture", fixtureGraph, 0.5},
	{"cycle2000", func() *graph.Graph { return graph.Cycle(2000) }, 0.5},
	{"cycle2000", func() *graph.Graph { return graph.Cycle(2000) }, 1},
}

func computeEdgeFixtures(t testing.TB) []edgeFixture {
	var out []edgeFixture
	for _, c := range edgeFixtureCases {
		ec, err := BallCarveEdges(c.g(), c.eps)
		if err != nil {
			t.Fatalf("%s eps %v: %v", c.name, c.eps, err)
		}
		out = append(out, edgeFixture{
			Graph: c.name, Eps: c.eps, K: ec.K, Assign: ec.Assign, Centers: ec.Centers, Cut: ec.Cut,
		})
	}
	return out
}

// TestEdgeCarvingFixtures asserts that BallCarveEdges reproduces every
// recorded carving bit for bit. Run with -update-fixtures to
// re-record (only legitimate when the edge construction itself changes,
// never for a representation refactor).
func TestEdgeCarvingFixtures(t *testing.T) {
	got := computeEdgeFixtures(t)
	if *updateFixtures {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(edgeFixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", edgeFixturePath, len(got))
		return
	}
	data, err := os.ReadFile(edgeFixturePath)
	if err != nil {
		t.Fatalf("read edge fixtures (run with -update-fixtures to create): %v", err)
	}
	var want []edgeFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d edge fixtures computed, %d recorded", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Graph != w.Graph || g.Eps != w.Eps || g.K != w.K {
			t.Errorf("fixture %d: %s eps=%v K=%d, recorded %s eps=%v K=%d",
				i, g.Graph, g.Eps, g.K, w.Graph, w.Eps, w.K)
			continue
		}
		if !slices.Equal(g.Assign, w.Assign) {
			t.Errorf("%s eps %v: assignment differs from fixture", g.Graph, g.Eps)
		}
		if !slices.Equal(g.Centers, w.Centers) {
			t.Errorf("%s eps %v: centers differ from fixture", g.Graph, g.Eps)
		}
		if !slices.Equal(g.Cut, w.Cut) {
			t.Errorf("%s eps %v: cut edges differ from fixture", g.Graph, g.Eps)
		}
	}
}
