package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"strongdecomp"
	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
)

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricEmitted runs every workload at tiny sizes, traced and
// untraced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	bin := filepath.Join(t.TempDir(), "serve")
	if out, err := exec.Command("go", "build", "-o", bin, "strongdecomp/cmd/serve").CombinedOutput(); err != nil {
		t.Fatalf("build cmd/serve: %v\n%s", err, out)
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 1, trace: trace, serveBin: bin, tiny: true, algo: "chang-ghaffari"}
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			rep := o.report(trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// rowsDecomposition clusters a grid by row parity: two clusters of
// different colours, so colours are proper, but each cluster is a set of
// disconnected rows.
func rowsDecomposition(g *graph.Graph, cols int) *cluster.Decomposition {
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = (v / cols) % 2
	}
	return &cluster.Decomposition{Assign: assign, Color: []int{0, 1}, K: 2, Colors: 2, Centers: []int{0, cols}}
}

// singletonsDecomposition puts every node in its own cluster, all of one
// colour, so adjacent clusters share a colour.
func singletonsDecomposition(g *graph.Graph) *cluster.Decomposition {
	d := &cluster.Decomposition{K: g.N(), Colors: 1}
	for v := 0; v < g.N(); v++ {
		d.Assign = append(d.Assign, v)
		d.Color = append(d.Color, 0)
		d.Centers = append(d.Centers, v)
	}
	return d
}

// TestFaultyConstructionsFail registers constructions that return a
// disconnected cluster or same-coloured adjacent clusters and checks the
// library workload counts their operations as failed.
func TestFaultyConstructionsFail(t *testing.T) {
	faulty := map[string]func(*graph.Graph) *cluster.Decomposition{
		"perfbench-faulty-disconnected": func(g *graph.Graph) *cluster.Decomposition { return rowsDecomposition(g, 20) },
		"perfbench-faulty-colour":       singletonsDecomposition,
	}
	for name, build := range faulty {
		err := strongdecomp.Register(name, func() strongdecomp.Decomposer {
			return strongdecomp.DecomposerFuncs{
				Meta: strongdecomp.AlgorithmInfo{Name: name, Model: "deterministic", Diameter: "strong"},
				DecomposeFunc: func(_ context.Context, g *graph.Graph, _ strongdecomp.RunOptions) (*cluster.Decomposition, error) {
					return build(g), nil
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { strongdecomp.Unregister(name) })
		for _, trace := range []bool{false, true} {
			o, err := run(config{workload: "grid", seed: 1, seconds: 0.2, trace: trace, tiny: true, algo: name})
			if err != nil {
				t.Fatal(err)
			}
			if rep := o.report(trace); rep.Correct || rep.Failed == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d, want the output check to fail it", name, trace, rep.Correct, rep.Failed)
			}
		}
	}
}

// TestTracedMatchesChangGhaffari checks the traced construction computes
// exactly chang-ghaffari's decomposition.
func TestTracedMatchesChangGhaffari(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid(15, 15), connectedExpander(500, 2)} {
		e := strongdecomp.NewEngine()
		var digests []string
		for _, algo := range []string{"chang-ghaffari", tracedAlgo} {
			r, err := runOnce(context.Background(), e, g, algo, &checker{}, "")
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, decompDigest(r.out.Decomposition))
		}
		if digests[0] != digests[1] {
			t.Errorf("n=%d: traced digest %s, chang-ghaffari %s", g.N(), digests[1], digests[0])
		}
	}
}
