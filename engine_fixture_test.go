package strongdecomp

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"strongdecomp/internal/graph"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/engine_fixtures.json from the current code")

// engineFixture pins the full output of one construction on the fixture
// graph: any representation change in the graph substrate must reproduce
// these assignments bit for bit.
type engineFixture struct {
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Colors    int    `json:"colors"`
	Assign    []int  `json:"assign"`
	Color     []int  `json:"color"`
}

const fixturePath = "testdata/engine_fixtures.json"

// fixtureGraph is a fixed multi-component graph covering random, structured,
// tree, and expander-like components, so the Engine's per-component split,
// remap, and merge paths are all on the measured line.
func fixtureGraph() *graph.Graph {
	return graph.DisjointUnion(
		graph.ConnectedGnp(300, 0.02, 7),
		graph.Cycle(101),
		graph.Grid(12, 17),
		graph.RandomTree(97, 3),
		graph.SubdividedExpander(16, 4, 4, 5),
	)
}

func computeFixtures(t testing.TB) []engineFixture {
	g := fixtureGraph()
	e := NewEngine(WithWorkers(4))
	var out []engineFixture
	for _, algo := range Algorithms() {
		o, err := e.Run(context.Background(), g, Params{Algorithm: algo, Kind: KindDecompose, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		d := o.Decomposition
		out = append(out, engineFixture{
			Algorithm: algo, K: d.K, Colors: d.Colors,
			Assign: d.Assign, Color: d.Color,
		})
	}
	return out
}

// TestEngineFixtures runs every registered construction through the Engine
// on the multi-component fixture graph and asserts the decompositions are
// bit-identical to the recorded pre-CSR-refactor results. Run with
// -update-fixtures to re-record (only legitimate when an algorithm itself
// changes, never for a representation refactor).
func TestEngineFixtures(t *testing.T) {
	got := computeFixtures(t)
	if *updateFixtures {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", fixturePath, len(got))
		return
	}
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update-fixtures to create): %v", err)
	}
	var want []engineFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]engineFixture, len(want))
	for _, f := range want {
		byName[f.Algorithm] = f
	}
	for _, g := range got {
		w, ok := byName[g.Algorithm]
		if !ok {
			t.Errorf("%s: no recorded fixture", g.Algorithm)
			continue
		}
		if g.K != w.K || g.Colors != w.Colors {
			t.Errorf("%s: got K=%d Colors=%d, fixture K=%d Colors=%d", g.Algorithm, g.K, g.Colors, w.K, w.Colors)
			continue
		}
		if !equalInts(g.Assign, w.Assign) {
			t.Errorf("%s: assignment differs from fixture", g.Algorithm)
		}
		if !equalInts(g.Color, w.Color) {
			t.Errorf("%s: cluster colors differ from fixture", g.Algorithm)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
