package main

import (
	"context"
	"runtime/metrics"
	"time"

	"strongdecomp"
	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// tracedAlgo is the bench-only construction that composes the paper's
// three layers by hand — Theorem 2.3's colour loop (core.DecomposeContext)
// over Theorem 2.1's transformation (core.StrongCarveContext) over the
// weak carver A (rg.Carve) — and times each call from outside. It must
// reproduce chang-ghaffari's output exactly; the traced run checks that.
const tracedAlgo = "perfbench-traced"

// layerTotals accumulates inclusive wall time, calls and heap bytes per
// layer. Self times are differences of nested inclusive totals.
type layerTotals struct {
	rgNS, rgCalls, rgNodes, rgHostN, rgAlloc int64
	thmNS, thmCalls, thmAlloc                int64
	decNS                                    int64
	rounds                                   map[string]int64
}

// layerClock is what the traced construction writes into. The traced
// run drives one operation at a time, so it needs no locking.
var layerClock layerTotals

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would, on every layer call).
func heapAllocs() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

func tracedWeak(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	a0, t0 := heapAllocs(), time.Now()
	c, err := rg.Carve(g, nodes, eps, m)
	layerClock.rgNS += int64(time.Since(t0))
	layerClock.rgAlloc += heapAllocs() - a0
	layerClock.rgCalls++
	size := len(nodes)
	if nodes == nil {
		size = g.N()
	}
	layerClock.rgNodes += int64(size)
	layerClock.rgHostN += int64(g.N())
	return c, err
}

func tracedStrong(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	a0, t0 := heapAllocs(), time.Now()
	c, err := core.StrongCarveContext(ctx, g, nodes, eps, tracedWeak, m)
	layerClock.thmNS += int64(time.Since(t0))
	layerClock.thmAlloc += heapAllocs() - a0
	layerClock.thmCalls++
	return c, err
}

func tracedDecompose(ctx context.Context, g *graph.Graph, o strongdecomp.RunOptions) (*cluster.Decomposition, error) {
	t0 := time.Now()
	d, err := core.DecomposeContext(ctx, g, tracedStrong, o.Meter)
	layerClock.decNS += int64(time.Since(t0))
	layerClock.rounds = o.Meter.Components()
	return d, err
}

func init() {
	err := strongdecomp.Register(tracedAlgo, func() strongdecomp.Decomposer {
		return strongdecomp.DecomposerFuncs{
			Meta:          strongdecomp.AlgorithmInfo{Name: tracedAlgo, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: tracedDecompose,
		}
	})
	if err != nil {
		panic(err)
	}
}
