// Command bench runs the substrate performance suites and emits a
// machine-readable benchmark artifact — the BENCH_*.json trajectory every
// performance PR is judged against. Two suites run: the PerfSuite from
// PR 3 (CSR build, parse, traverse, subgraph, engine decompose/carve) and
// the PR 5 load-path suite (text parse vs binary CSR snapshot streaming
// read / mmap / trusted mmap on a large workload, plus the out-of-core
// BuildCSRStream snapshot build of the same workload).
//
// The emitted document carries the recorded pre-CSR-refactor baseline
// (fixed numbers, measured once on the [][]int adjacency representation
// before it was replaced), the current run on this machine, and the
// load-path rows. Two acceptance blocks summarize the headlines: engine
// decompose allocations before/after the CSR refactor, and snapshot mmap
// open vs the fastest text parse.
//
// Usage:
//
//	bench [-out BENCH_pr5.json] [-short] [-algos chang-ghaffari,...] [-text]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"strongdecomp"
	"strongdecomp/internal/bench"
)

// preRefactorBaseline is the pre-CSR measurement set: the same PerfSuite
// workloads run at commit e59f2ab ("PR 2"), when the graph core was a
// [][]int adjacency, InducedSubgraph/IsConnected remapped through maps,
// and the rg carver allocated per-node cluster state eagerly. Times are
// from one machine (Intel Xeon @ 2.10GHz, go1.24, -benchtime 1s) and are
// meaningful relative to a current run on the same machine; allocs/op is
// machine independent.
var preRefactorBaseline = []bench.PerfResult{
	{Name: "build-connectedgnp", Workload: bench.CSRWorkloadName, NsPerOp: 7721063, AllocsPerOp: 26, BytesPerOp: 551536},
	{Name: "parse-edgelist", Workload: bench.CSRWorkloadName, NsPerOp: 438237, AllocsPerOp: 5615, BytesPerOp: 626154},
	{Name: "parse-metis", Workload: bench.CSRWorkloadName, NsPerOp: 1488447, AllocsPerOp: 2606, BytesPerOp: 855945},
	{Name: "bfs", Workload: bench.CSRWorkloadName, NsPerOp: 6732, AllocsPerOp: 10, BytesPerOp: 8184},
	{Name: "components", Workload: bench.CSRWorkloadName, NsPerOp: 30660, AllocsPerOp: 9, BytesPerOp: 22184},
	{Name: "induced-subgraph", Workload: bench.CSRWorkloadName, NsPerOp: 212548, AllocsPerOp: 87, BytesPerOp: 312128},
	{Name: "is-connected", Workload: bench.CSRWorkloadName, NsPerOp: 222955, AllocsPerOp: 100, BytesPerOp: 165409},
	{Name: "engine-decompose/chang-ghaffari", Workload: bench.CSRWorkloadName, Algorithm: "chang-ghaffari", NsPerOp: 4597065, AllocsPerOp: 13320, BytesPerOp: 2376902},
	{Name: "engine-carve/chang-ghaffari", Workload: bench.CSRWorkloadName, Algorithm: "chang-ghaffari", NsPerOp: 4690209, AllocsPerOp: 13259, BytesPerOp: 2341249},
}

// document is the emitted artifact schema.
type document struct {
	Schema    string `json:"schema"`
	PR        string `json:"pr"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Short     bool   `json:"short"`

	// Baseline is the fixed pre-CSR-refactor measurement set (see
	// preRefactorBaseline); Current is this run.
	BaselineNote string             `json:"baselineNote"`
	Baseline     []bench.PerfResult `json:"baseline"`
	Current      []bench.PerfResult `json:"current"`

	// LoadPath is the PR 5 load-path suite: text parse vs binary CSR
	// snapshot (streaming read, mmap, trusted mmap) on the large workload.
	LoadPath []bench.PerfResult `json:"loadPath"`

	// Acceptance summarizes the headline comparison: allocations per op on
	// the engine multi-component decompose path, before vs after.
	Acceptance acceptance `json:"acceptance"`
	// LoadPathAcceptance summarizes the PR 5 criterion: the mmap snapshot
	// load must beat the fastest text parse on the large workload.
	LoadPathAcceptance loadPathAcceptance `json:"loadPathAcceptance"`
}

type acceptance struct {
	Path              string  `json:"path"`
	BaselineAllocs    int64   `json:"baselineAllocsPerOp"`
	CurrentAllocs     int64   `json:"currentAllocsPerOp"`
	AllocsRatio       float64 `json:"allocsImprovementRatio"`
	MeetsTwoXCriteria bool    `json:"meetsTwoXCriteria"`
}

// loadPathAcceptance compares the mmap snapshot load against the fastest
// text parse of the same workload.
type loadPathAcceptance struct {
	Workload string `json:"workload"`
	// FastestParse and its ns/op; MmapNs is the verified LoadCSR path.
	FastestParse     string  `json:"fastestParsePath"`
	FastestParseNs   int64   `json:"fastestParseNsPerOp"`
	MmapNs           int64   `json:"mmapNsPerOp"`
	SpeedupRatio     float64 `json:"speedupRatio"`
	MmapBeatsParsing bool    `json:"mmapBeatsParsing"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out    = flag.String("out", "", "write the JSON artifact to this path (default: stdout)")
		short  = flag.Bool("short", false, "fixed small iteration counts instead of 1s auto-tuning (CI smoke mode)")
		algos  = flag.String("algos", "chang-ghaffari", "comma-separated registry names for the engine cases; \"all\" measures every registered construction")
		asText = flag.Bool("text", false, "print an aligned text table instead of JSON")
		pr     = flag.String("pr", "pr10", "PR tag recorded in the artifact")
	)
	flag.Parse()

	var names []string
	if *algos == "all" {
		names = strongdecomp.Algorithms()
	} else {
		for _, name := range strings.Split(*algos, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	results, err := bench.PerfSuite(strongdecomp.NewEngine(strongdecomp.WithWorkers(1)), names, *short)
	if err != nil {
		return err
	}
	loadResults, err := bench.LoadPathSuite(*short)
	if err != nil {
		return err
	}

	if *asText {
		fmt.Print(bench.FormatPerf(results))
		fmt.Print(bench.FormatPerf(loadResults))
		return nil
	}

	acc, err := buildAcceptance(results)
	if err != nil {
		return err
	}
	loadAcc, err := buildLoadPathAcceptance(loadResults)
	if err != nil {
		return err
	}
	doc := document{
		Schema:             "strongdecomp-bench/v2",
		PR:                 *pr,
		GoVersion:          runtime.Version(),
		GOOS:               runtime.GOOS,
		GOARCH:             runtime.GOARCH,
		CPUs:               runtime.NumCPU(),
		Short:              *short,
		BaselineNote:       "pre-CSR-refactor measurement at commit e59f2ab ([][]int adjacency, map-based remap); allocs/op machine-independent, ns/op comparable on like hardware only; parse-json has no baseline row (the pre-refactor suite did not measure it)",
		Baseline:           preRefactorBaseline,
		Current:            results,
		LoadPath:           loadResults,
		Acceptance:         acc,
		LoadPathAcceptance: loadAcc,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (engine decompose allocs/op: %d -> %d, %.1fx fewer; snapshot mmap vs %s: %.1fx faster)\n",
		*out, doc.Acceptance.BaselineAllocs, doc.Acceptance.CurrentAllocs, doc.Acceptance.AllocsRatio,
		doc.LoadPathAcceptance.FastestParse, doc.LoadPathAcceptance.SpeedupRatio)
	return nil
}

// buildLoadPathAcceptance extracts the PR 5 headline: verified mmap open
// vs the fastest text parse.
func buildLoadPathAcceptance(results []bench.PerfResult) (loadPathAcceptance, error) {
	acc := loadPathAcceptance{Workload: bench.LoadWorkloadName}
	for _, r := range results {
		switch r.Name {
		case "loadpath-parse-edgelist", "loadpath-parse-metis", "loadpath-parse-json":
			if acc.FastestParseNs == 0 || r.NsPerOp < acc.FastestParseNs {
				acc.FastestParse, acc.FastestParseNs = r.Name, r.NsPerOp
			}
		case "loadpath-csr-mmap":
			acc.MmapNs = r.NsPerOp
		}
	}
	if acc.MmapNs <= 0 || acc.FastestParseNs <= 0 {
		return acc, fmt.Errorf("load-path suite missing parse or mmap rows")
	}
	acc.SpeedupRatio = float64(acc.FastestParseNs) / float64(acc.MmapNs)
	acc.MmapBeatsParsing = acc.MmapNs < acc.FastestParseNs
	return acc, nil
}

func buildAcceptance(current []bench.PerfResult) (acceptance, error) {
	const path = "engine-decompose/chang-ghaffari"
	acc := acceptance{Path: path}
	for _, r := range preRefactorBaseline {
		if r.Name == path {
			acc.BaselineAllocs = r.AllocsPerOp
		}
	}
	for _, r := range current {
		if r.Name == path {
			acc.CurrentAllocs = r.AllocsPerOp
		}
	}
	if acc.CurrentAllocs <= 0 {
		return acc, fmt.Errorf("the JSON artifact needs the headline path %q: include chang-ghaffari in -algos (or use -text for partial runs)", path)
	}
	acc.AllocsRatio = float64(acc.BaselineAllocs) / float64(acc.CurrentAllocs)
	acc.MeetsTwoXCriteria = acc.AllocsRatio >= 2
	return acc, nil
}
