package strongdecomp_test

import (
	"context"
	"testing"

	"strongdecomp"
	"strongdecomp/internal/obs"
)

// TestEngineRunStageTimings pins the Outcome.Stages contract: an
// un-instrumented context yields no stage breakdown at all, while an
// instrumented one (an obs collector on the context) gets the engine's
// phase decomposition — split, carve-rounds, and merge for
// multi-component graphs — in execution order.
func TestEngineRunStageTimings(t *testing.T) {
	e := strongdecomp.NewEngine()
	split, err := strongdecomp.NewGraph(9, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}

	plain, err := e.Run(context.Background(), split, strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindDecompose})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stages != nil {
		t.Fatalf("un-instrumented run reported stages %v, want none", plain.Stages)
	}

	ctx := obs.WithRequest(context.Background(), obs.NewCollector(nil), obs.NewTrace())
	checkStages := func(p strongdecomp.Params, g *strongdecomp.Graph, want []string) {
		t.Helper()
		out, err := e.Run(ctx, g, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Stages) != len(want) {
			t.Fatalf("stages = %v, want names %v", out.Stages, want)
		}
		for i, s := range out.Stages {
			if s.Name != want[i] {
				t.Errorf("stage %d = %q, want %q", i, s.Name, want[i])
			}
			if s.Elapsed < 0 {
				t.Errorf("stage %q has negative elapsed %v", s.Name, s.Elapsed)
			}
		}
	}

	checkStages(strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindDecompose}, split,
		[]string{"split", "carve-rounds", "merge"})
	checkStages(strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindDecompose}, strongdecomp.PathGraph(8),
		[]string{"split", "carve-rounds"})
	checkStages(strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindCarve, Eps: 0.5}, split,
		[]string{"split", "carve-rounds", "merge"})
}
