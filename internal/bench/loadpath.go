package bench

// The load-path suite behind BENCH_pr5.json: how long does it take to get
// a usable graph.Graph from bytes on disk? It measures every text parser
// against the binary CSR snapshot paths on one large workload, because
// the snapshot format exists precisely to amortize parse cost — a graph
// is parsed once, spilled as a snapshot, and every later boot (or every
// service restart over a data directory) reopens it via mmap.
//
// Three snapshot paths are measured, in decreasing work order:
//
//	csr-read          streaming decode + checksum + structural validation
//	csr-mmap          mmap + checksum + structural validation (graphio.LoadCSR)
//	csr-mmap-trusted  mmap + checksum only (graphio.LoadCSRTrusted) — the
//	                  serving layer's disk-tier path for its own spill files
//
// The suite also measures the write side of the out-of-core pipeline on
// the same workload: loadpath-stream-build-csr feeds the edge stream
// through graphio.BuildCSRStream (sorted runs -> merge -> snapshot).
//
// Fairness notes: every load case starts from a file on disk (same
// page-cache warmth), and every load case touches N and M plus one
// adjacency row, so a loader cannot win by deferring all work.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// LoadWorkloadGraph is the large load-path workload: a connected sparse
// random graph of 2^16 nodes at average degree ~8 (≈260k edges), the
// shape a production service actually re-loads.
func LoadWorkloadGraph() *graph.Graph {
	n := 1 << 16
	return graph.ConnectedGnp(n, 8.0/float64(n), 7)
}

// LoadWorkloadName describes LoadWorkloadGraph in the emitted artifact.
const LoadWorkloadName = "connected-gnp(n=65536, avg-deg≈8)"

// LoadPathSuite writes the workload to disk in every format and measures
// each load path. Results reuse the PerfResult schema; short mode uses
// the suite's fixed small iteration count (CI smoke).
func LoadPathSuite(short bool) ([]PerfResult, error) {
	w := LoadWorkloadGraph()
	dir, err := os.MkdirTemp("", "strongdecomp-loadpath-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)

	paths := map[graphio.Format]string{
		graphio.FormatEdgeList: filepath.Join(dir, "w.el"),
		graphio.FormatMETIS:    filepath.Join(dir, "w.metis"),
		graphio.FormatJSON:     filepath.Join(dir, "w.json"),
		graphio.FormatCSR:      filepath.Join(dir, "w.csr"),
	}
	for _, path := range paths {
		if err := graphio.Save(path, w); err != nil {
			return nil, err
		}
	}

	// check guards against dead-code elimination and forces a minimum of
	// real work out of every loader.
	check := func(g *graph.Graph, err error) error {
		if err != nil {
			return err
		}
		if g.N() != w.N() || g.M() != w.M() || g.Degree(0) != w.Degree(0) {
			return errors.New("loaded graph differs from workload")
		}
		return nil
	}
	loadCase := func(name, path string, load func(string) (*graph.Graph, error)) perfCase {
		return perfCase{name, w.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				if err := check(load(path)); err != nil {
					return err
				}
			}
			return nil
		}}
	}

	cases := []perfCase{
		loadCase("loadpath-parse-edgelist", paths[graphio.FormatEdgeList], graphio.Load),
		loadCase("loadpath-parse-metis", paths[graphio.FormatMETIS], graphio.Load),
		loadCase("loadpath-parse-json", paths[graphio.FormatJSON], graphio.Load),
		loadCase("loadpath-csr-read", paths[graphio.FormatCSR], readCSRFromFile),
		loadCase("loadpath-csr-mmap", paths[graphio.FormatCSR], graphio.LoadCSR),
		loadCase("loadpath-csr-mmap-trusted", paths[graphio.FormatCSR], graphio.LoadCSRTrusted),
		{"loadpath-stream-build-csr", w.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				if err := streamOut(filepath.Join(dir, "w-stream.csr"), w); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	out := make([]PerfResult, 0, len(cases))
	for _, c := range cases {
		res, err := runPerfCase(c, short)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.name, err)
		}
		res.Workload = LoadWorkloadName
		out = append(out, res)
	}
	return out, nil
}

// streamOut feeds g's edges (u < v once each) through BuildCSRStream.
func streamOut(path string, g *graph.Graph) error {
	return graphio.BuildCSRStream(path, g.N(), func(emit func(u, v int)) error {
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					emit(u, v)
				}
			}
		}
		return nil
	})
}

// readCSRFromFile is the snapshot streaming-decode path pinned to a file
// source, so it pays the same I/O as the others (LoadCSR would mmap).
func readCSRFromFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.ReadCSR(bufio.NewReaderSize(f, 1<<16))
}
