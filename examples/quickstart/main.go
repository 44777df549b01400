// Quickstart: build a graph, run the paper's deterministic strong-diameter
// network decomposition, inspect the result, and verify it.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"strongdecomp"
)

func main() {
	// A 32x32 grid: 1024 nodes.
	g := strongdecomp.GridGraph(32, 32)

	// The paper's headline construction (Theorem 2.3): O(log n) colors,
	// strong-diameter clusters, deterministic, O(log n)-bit messages.
	meter := strongdecomp.NewMeter()
	d, err := strongdecomp.Decompose(g, strongdecomp.WithMeter(meter))
	if err != nil {
		log.Fatal(err)
	}

	members := d.Members()
	fmt.Printf("n=%d nodes, %d clusters, %d colors\n", g.N(), d.K, d.Colors)
	fmt.Printf("max strong diameter: %d\n", strongdecomp.MaxStrongDiameter(g, members))
	fmt.Printf("simulated CONGEST rounds: %d\n", meter.Rounds())

	// Count cluster sizes per color: color classes shrink geometrically
	// because each carving iteration clusters half of what remains.
	perColor := make([]int, d.Colors)
	for v := 0; v < g.N(); v++ {
		perColor[d.NodeColor(v)]++
	}
	for c, cnt := range perColor {
		fmt.Printf("color %d: %d nodes\n", c, cnt)
	}

	// The library ships its own validator: same-color clusters must be
	// non-adjacent and every cluster connected.
	if err := strongdecomp.VerifyDecomposition(g, d, -1, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("decomposition verified: same-color clusters non-adjacent, clusters connected")

	// The improved variant (Theorem 3.4) trades rounds for diameter.
	d2, err := strongdecomp.Decompose(g, strongdecomp.WithAlgorithmName("chang-ghaffari-improved"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("improved variant: %d colors, max diameter %d\n",
		d2.Colors, strongdecomp.MaxStrongDiameter(g, d2.Members()))

	// Every construction lives in the algorithm registry; anything listed
	// here can be selected with WithAlgorithmName or run via Lookup.
	fmt.Printf("registered algorithms: %v\n", strongdecomp.Algorithms())

	// For serving workloads, the Engine runs any registered construction
	// over a worker pool (connected components in parallel) with context
	// cancellation: here three graphs are decomposed under a deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	engine := strongdecomp.NewEngine(strongdecomp.WithWorkers(4))
	batch := []*strongdecomp.Graph{
		strongdecomp.CycleGraph(2048),
		strongdecomp.GridGraph(32, 32),
		strongdecomp.BinaryTreeGraph(1023),
	}
	for i, bg := range batch {
		out, err := engine.Run(ctx, bg, strongdecomp.Params{Kind: strongdecomp.KindDecompose, Seed: 1 + int64(i)})
		if err != nil {
			log.Fatal(err)
		}
		r := out.Decomposition
		fmt.Printf("batch[%d]: %d clusters, %d colors\n", i, r.K, r.Colors)
	}
	stats := engine.Stats()
	fmt.Printf("engine: %d runs on %d workers\n", stats.Runs, stats.Workers)
}
