package strongdecomp

import (
	"context"
	"testing"

	"strongdecomp/internal/graph"
)

// TestEngineSingleComponentWorkerInvariance pins the single-component
// path — the one the multi-component fixture graph never takes, where the
// engine hands the whole graph to the construction instead of fanning
// components out — by running one connected graph through Engine.Run at
// one and at four workers and asserting bit-identical decompositions,
// carvings and round counts for every registered construction.
func TestEngineSingleComponentWorkerInvariance(t *testing.T) {
	g := graph.ConnectedGnp(2000, 0.004, 17)
	ctx := context.Background()
	for _, algo := range Algorithms() {
		one := NewEngine(WithEngineAlgorithm(algo), WithWorkers(1))
		four := NewEngine(WithEngineAlgorithm(algo), WithWorkers(4))

		dp := Params{Kind: KindDecompose, Seed: 7, Meter: true}
		want, err := one.Run(ctx, g, dp)
		if err != nil {
			t.Fatalf("%s: decompose at 1 worker: %v", algo, err)
		}
		got, err := four.Run(ctx, g, dp)
		if err != nil {
			t.Fatalf("%s: decompose at 4 workers: %v", algo, err)
		}
		wd, gd := want.Decomposition, got.Decomposition
		if gd.K != wd.K || gd.Colors != wd.Colors || got.Rounds != want.Rounds ||
			!equalInts(gd.Assign, wd.Assign) || !equalInts(gd.Color, wd.Color) {
			t.Errorf("%s: single-component decompose differs between 1 and 4 workers", algo)
		}

		cp := Params{Kind: KindCarve, Eps: 0.5, Seed: 7, Meter: true}
		wantC, err := one.Run(ctx, g, cp)
		if err != nil {
			t.Fatalf("%s: carve at 1 worker: %v", algo, err)
		}
		gotC, err := four.Run(ctx, g, cp)
		if err != nil {
			t.Fatalf("%s: carve at 4 workers: %v", algo, err)
		}
		wc, gc := wantC.Carving, gotC.Carving
		if gc.K != wc.K || gotC.Rounds != wantC.Rounds || !equalInts(gc.Assign, wc.Assign) {
			t.Errorf("%s: single-component carve differs between 1 and 4 workers", algo)
		}
	}
}
