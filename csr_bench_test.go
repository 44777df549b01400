// BenchmarkCSR* is the substrate benchmark suite: it measures the graph core
// (build, parse, traverse, subgraph) and the Engine decompose and carve paths
// that everything else in the repo stands on, on one shared multi-component
// workload. Run it with
//
//	go test -run '^$' -bench 'BenchmarkCSR' -benchmem .
//
// The load-path cases (text parse vs binary snapshot on a 65,536-node graph)
// are BenchmarkLoad_* in internal/graphio; EXPERIMENTS.md reads both.
package strongdecomp

import (
	"bytes"
	"context"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// csrBenchGraph is the shared multi-component workload: structurally
// different components (random, cycle, grid, tree), so engine runs exercise
// the per-component split, remap and merge paths rather than the
// single-component fast path.
func csrBenchGraph() *graph.Graph {
	return graph.DisjointUnion(
		graph.ConnectedGnp(512, 0.01, 7),
		graph.Cycle(257),
		graph.Grid(16, 16),
		graph.RandomTree(255, 3),
	)
}

// preCSRDecomposeAllocs is the allocations per Engine decompose of
// chang-ghaffari on csrBenchGraph measured at commit e59f2ab, before the
// graph core moved to CSR: a [][]int adjacency, map-based subgraph remaps
// and eager per-node carving state. Allocation counts do not depend on the
// machine, so the figure stays comparable.
const preCSRDecomposeAllocs = 13320

// TestEngineDecomposeAllocsBound keeps the CSR refactor's headline: the
// Engine's multi-component decompose allocates at most half of what it did
// before the refactor.
func TestEngineDecomposeAllocsBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are nondeterministic")
	}
	g := csrBenchGraph()
	e := NewEngine(WithWorkers(1))
	p := Params{Algorithm: "chang-ghaffari", Kind: KindDecompose, Seed: 42}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Run(context.Background(), g, p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("engine decompose: %v allocs per run (pre-CSR %d)", allocs, preCSRDecomposeAllocs)
	if limit := float64(preCSRDecomposeAllocs) / 2; allocs > limit {
		t.Fatalf("engine decompose allocates %v per run, want <= %v (half the pre-CSR %d)",
			allocs, limit, preCSRDecomposeAllocs)
	}
}

func BenchmarkCSR_BuildConnectedGnp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.ConnectedGnp(2048, 4.0/2048, 7)
		if g.N() != 2048 {
			b.Fatal("bad build")
		}
	}
}

// benchParse measures graphio.Read of the workload written in format f.
func benchParse(b *testing.B, f graphio.Format) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, csrBenchGraph(), f); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphio.Read(bytes.NewReader(data), f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSR_ParseEdgeList(b *testing.B) { benchParse(b, graphio.FormatEdgeList) }

func BenchmarkCSR_ParseMETIS(b *testing.B) { benchParse(b, graphio.FormatMETIS) }

func BenchmarkCSR_ParseJSON(b *testing.B) { benchParse(b, graphio.FormatJSON) }

func BenchmarkCSR_BFS(b *testing.B) {
	g := csrBenchGraph()
	dist := make([]int, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BFS(g, nil, []int{0}, dist)
	}
}

func BenchmarkCSR_Components(b *testing.B) {
	g := csrBenchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(graph.Components(g, nil)); got != 4 {
			b.Fatalf("want 4 components, got %d", got)
		}
	}
}

func BenchmarkCSR_InducedSubgraph(b *testing.B) {
	g := csrBenchGraph()
	comps := graph.Components(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			sub, _ := graph.InducedSubgraph(g, comp)
			if sub.N() != len(comp) {
				b.Fatal("bad subgraph")
			}
		}
	}
}

func BenchmarkCSR_IsConnected(b *testing.B) {
	g := csrBenchGraph()
	comps := graph.Components(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			if !graph.IsConnected(g, comp) {
				b.Fatal("component disconnected")
			}
		}
	}
}

// benchEngine runs p through the Engine's multi-component path (components →
// per-component InducedSubgraph → construction → merge) once per registered
// construction. Workers are pinned to 1 so allocs/op is scheduling
// independent.
func benchEngine(b *testing.B, p Params) {
	g := csrBenchGraph()
	e := NewEngine(WithWorkers(1))
	ctx := context.Background()
	for _, algo := range Algorithms() {
		p.Algorithm = algo
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(ctx, g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCSR_EngineDecompose(b *testing.B) {
	benchEngine(b, Params{Kind: KindDecompose, Seed: 42})
}

func BenchmarkCSR_EngineCarve(b *testing.B) {
	benchEngine(b, Params{Kind: KindCarve, Eps: 0.5, Seed: 42})
}
