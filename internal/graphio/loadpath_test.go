package graphio

// The load-path measurements: how long it takes to get a usable graph.Graph
// from bytes on disk. Every text parser is measured against the binary CSR
// snapshot paths on one large workload, because the snapshot format exists
// to amortize parse cost: a graph is parsed once, spilled as a snapshot, and
// every later boot (or service restart over a data directory) reopens it by
// mmap. The snapshot paths, in decreasing work order:
//
//	CSRRead         streaming decode + checksum + structural validation
//	CSRMmap         mmap + checksum + structural validation (LoadCSR)
//	CSRMmapTrusted  mmap + checksum only (LoadCSRTrusted), the serving
//	                layer's disk-tier path for its own spill files
//
// BuildCSRStream measures the write side of the out-of-core pipeline on the
// same workload. Every load starts from a file on disk and is checked
// against the workload's N, M and one adjacency row, so no loader wins by
// deferring work. Run with
//
//	go test -run '^$' -bench 'BenchmarkLoad' -benchmem ./internal/graphio/

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"strongdecomp/internal/graph"
)

// loadWorkload is the large load-path workload: a connected expander of 2^16
// nodes and about 262k edges, the shape a service re-loads.
var loadWorkload = sync.OnceValue(func() *graph.Graph {
	return graph.RandomRegularish(1<<16, 8, 7)
})

// saveLoadWorkload writes the workload under tb's temp dir as file name,
// whose extension picks the format, and returns the path.
func saveLoadWorkload(tb testing.TB, name string) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), name)
	if err := Save(path, loadWorkload()); err != nil {
		tb.Fatal(err)
	}
	return path
}

// checkLoaded rejects a load that failed or does not match the workload.
func checkLoaded(g *graph.Graph, err error) error {
	if err != nil {
		return err
	}
	w := loadWorkload()
	if g.N() != w.N() || g.M() != w.M() || g.Degree(0) != w.Degree(0) {
		return errors.New("loaded graph differs from workload")
	}
	return nil
}

// readCSRFromFile is the snapshot streaming-decode path pinned to a file
// source, so it pays the same I/O as the others (LoadCSR would mmap).
func readCSRFromFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSR(bufio.NewReaderSize(f, 1<<16))
}

func benchLoad(b *testing.B, name string, load func(string) (*graph.Graph, error)) {
	path := saveLoadWorkload(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkLoaded(load(path)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoad_ParseEdgeList(b *testing.B) { benchLoad(b, "w.el", Load) }

func BenchmarkLoad_ParseMETIS(b *testing.B) { benchLoad(b, "w.metis", Load) }

func BenchmarkLoad_ParseJSON(b *testing.B) { benchLoad(b, "w.json", Load) }

func BenchmarkLoad_CSRRead(b *testing.B) { benchLoad(b, "w.csr", readCSRFromFile) }

func BenchmarkLoad_CSRMmap(b *testing.B) { benchLoad(b, "w.csr", LoadCSR) }

func BenchmarkLoad_CSRMmapTrusted(b *testing.B) { benchLoad(b, "w.csr", LoadCSRTrusted) }

// BenchmarkLoad_BuildCSRStream feeds the workload's edges (u < v once each)
// through BuildCSRStream.
func BenchmarkLoad_BuildCSRStream(b *testing.B) {
	w := loadWorkload()
	path := filepath.Join(b.TempDir(), "w-stream.csr")
	stream := func(emit func(u, v int)) error {
		for u := 0; u < w.N(); u++ {
			for _, v := range w.Neighbors(u) {
				if u < v {
					emit(u, v)
				}
			}
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BuildCSRStream(path, w.N(), stream); err != nil {
			b.Fatal(err)
		}
	}
}

// loadPathIters is the fixed number of timed loads per path in
// TestSnapshotMmapBeatsTextParse; each path is timed by its fastest load.
const loadPathIters = 3

// TestSnapshotMmapBeatsTextParse keeps the snapshot format's reason to
// exist: a verified mmap open (LoadCSR) of the workload beats the fastest
// text parse of the same graph.
func TestSnapshotMmapBeatsTextParse(t *testing.T) {
	if raceEnabled {
		t.Skip("instrumented parses make the timing gate slow; the plain run covers it")
	}
	best := func(path string, load func(string) (*graph.Graph, error)) time.Duration {
		t.Helper()
		if err := checkLoaded(load(path)); err != nil { // warm the page cache
			t.Fatal(err)
		}
		var fastest time.Duration
		for i := 0; i < loadPathIters; i++ {
			start := time.Now()
			err := checkLoaded(load(path))
			d := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest
	}
	mmap := best(saveLoadWorkload(t, "w.csr"), LoadCSR)
	var parse time.Duration
	var parseName string
	for _, name := range []string{"w.el", "w.metis", "w.json"} {
		if d := best(saveLoadWorkload(t, name), Load); parseName == "" || d < parse {
			parse, parseName = d, name
		}
	}
	t.Logf("snapshot mmap %v, fastest text parse %s %v (%.1fx)", mmap, parseName, parse,
		float64(parse)/float64(mmap))
	if mmap >= parse {
		t.Fatalf("snapshot mmap %v does not beat the fastest text parse (%s, %v)", mmap, parseName, parse)
	}
}
