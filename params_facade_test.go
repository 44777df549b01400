package strongdecomp

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestRunParams covers the facade's canonical v2 entry point: both kinds,
// defaulting, metering, and equivalence with the legacy option shims.
func TestRunParams(t *testing.T) {
	g := ConnectedGnpGraph(80, 0.05, 3)

	out, err := Run(context.Background(), g, Params{Meter: true})
	if err != nil {
		t.Fatalf("Run with zero params: %v", err)
	}
	if out.Decomposition == nil {
		t.Fatal("zero params did not default to a decomposition")
	}
	if out.Params.Algorithm != DefaultAlgorithm || out.Params.Kind != KindDecompose {
		t.Fatalf("outcome params not normalized: %+v", out.Params)
	}
	if out.Rounds <= 0 {
		t.Fatal("metered run reports no rounds")
	}

	// The legacy option shim and the Params path must produce identical
	// results: they are one code path now.
	p := Params{Algorithm: "mpx", Kind: KindCarve, Eps: 0.5, Seed: 7}
	viaParams, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	viaOptions, err := BallCarve(g, 0.5, WithAlgorithmName("mpx"), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if viaParams.Carving.K != viaOptions.K {
		t.Fatalf("Params and options paths disagree: K %d vs %d", viaParams.Carving.K, viaOptions.K)
	}
	for v := range viaOptions.Assign {
		if viaParams.Carving.Assign[v] != viaOptions.Assign[v] {
			t.Fatalf("Params and options paths disagree at node %d", v)
		}
	}
}

// TestRunParamsValidation: the facade rejects malformed Params before any
// computation, with errors matching ErrInvalidParams.
func TestRunParamsValidation(t *testing.T) {
	g := PathGraph(4)
	bad := []Params{
		{Kind: KindCarve},                   // eps missing
		{Kind: KindCarve, Eps: math.NaN()},  // eps NaN
		{Kind: KindCarve, Eps: math.Inf(1)}, // eps infinite
		{Kind: KindCarve, Eps: 2},           // eps out of range
		{Kind: "paint"},                     // unknown kind
		{Kind: KindCarve, Eps: 0.5, Nodes: []int{-1}},
	}
	for _, p := range bad {
		if _, err := Run(context.Background(), g, p); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("Run(%+v) error = %v, want ErrInvalidParams", p, err)
		}
	}
	// The eps validation now guards the legacy facade entry points too.
	if _, err := BallCarve(g, math.NaN()); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("BallCarve NaN eps error = %v, want ErrInvalidParams", err)
	}
}

// TestParamsEncodingRoundTripFacade pins the re-exported canonical
// encoding: facade callers can persist a Params and get it back.
func TestParamsEncodingRoundTripFacade(t *testing.T) {
	p := Params{Algorithm: "mpx", Kind: KindCarve, Eps: 0.25, Seed: 9, Meter: true}
	got, err := DecodeParams(p.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != p.Key() {
		t.Fatalf("round trip changed params: %+v -> %+v", p, got)
	}
}

// TestEngineRunParams: the Engine's canonical entry executes Params with
// DefaultAlgorithm as default, the named construction otherwise, and
// per-component parallel merge.
func TestEngineRunParams(t *testing.T) {
	// Two components force the merge path.
	g, err := NewGraph(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(WithWorkers(2))
	out, err := e.Run(context.Background(), g, Params{Meter: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Params.Algorithm != DefaultAlgorithm {
		t.Fatalf("engine default algorithm not applied: %+v", out.Params)
	}
	for _, algo := range []string{DefaultAlgorithm, "sequential"} {
		out, err := e.Run(context.Background(), g, Params{Algorithm: algo, Meter: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Decomposition == nil || len(out.Decomposition.Assign) != 8 {
			t.Fatalf("%s: engine Run returned a malformed decomposition", algo)
		}
		if out.Params.Algorithm != algo {
			t.Fatalf("engine ran %q, want %q", out.Params.Algorithm, algo)
		}
		if out.Rounds <= 0 {
			t.Fatalf("%s: metered engine run reports no rounds", algo)
		}
	}
	if _, err := e.Run(context.Background(), g, Params{Kind: KindCarve, Eps: -1}); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("engine accepted invalid eps: %v", err)
	}
}

// TestOutOfRangeNodesRejected: a carving restricted to a node id outside
// the graph fails with ErrInvalidParams — never an index panic inside the
// construction — for every registered algorithm and through every entry
// point: Run, Engine.Run, and BallCarve with WithNodes.
func TestOutOfRangeNodesRejected(t *testing.T) {
	g := CycleGraph(8)
	ctx := context.Background()
	e := NewEngine(WithWorkers(2))
	for _, algo := range Algorithms() {
		for _, nodes := range [][]int{{0, 1, 99}, {8}} {
			p := Params{Algorithm: algo, Kind: KindCarve, Eps: 0.5, Nodes: nodes}
			if _, err := Run(ctx, g, p); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%s: Run(nodes %v) = %v, want ErrInvalidParams", algo, nodes, err)
			}
			if _, err := e.Run(ctx, g, p); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%s: Engine.Run(nodes %v) = %v, want ErrInvalidParams", algo, nodes, err)
			}
			if _, err := BallCarve(g, 0.5, WithAlgorithmName(algo), WithNodes(nodes)); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%s: BallCarve(WithNodes(%v)) = %v, want ErrInvalidParams", algo, nodes, err)
			}
		}
		// The last in-range id still runs.
		p := Params{Algorithm: algo, Kind: KindCarve, Eps: 0.5, Nodes: []int{6, 7}}
		if _, err := e.Run(ctx, g, p); err != nil {
			t.Errorf("%s: in-range nodes rejected: %v", algo, err)
		}
	}
	if _, err := BallCarveEdges(g, 0.5, WithNodes([]int{99})); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("BallCarveEdges(WithNodes(99)) = %v, want ErrInvalidParams", err)
	}
}
