package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"strongdecomp"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/obs"
)

// libraryGraph builds a library workload's single input from the seed.
//
//   - expander: one connected RandomRegularish(50000, 6). The weak carver
//     does almost all of the work in a few large accepting steps and the
//     engine's split/merge almost none, so a change to rg's carving state
//     shows here first.
//   - grid: Grid(200, 200), one high-diameter component. The weak carver
//     runs many small aggregate steps and Theorem 2.1's own ball growing
//     and component splits take about half of the time, so an rg change
//     that helps expander but costs grid shows here.
func libraryGraph(cfg config) *graph.Graph {
	switch {
	case cfg.workload == "expander" && cfg.tiny:
		return connectedExpander(600, cfg.seed)
	case cfg.workload == "expander":
		return connectedExpander(50000, cfg.seed)
	case cfg.tiny:
		return graph.Grid(20, 20)
	default:
		return graph.Grid(200, 200)
	}
}

// connectedExpander returns the first connected RandomRegularish(n, 6)
// drawn from seed, seed+1, ... (the family is connected with high
// probability, so this almost never loops).
func connectedExpander(n int, seed int64) *graph.Graph {
	for s := seed; ; s++ {
		g := graph.RandomRegularish(n, 6, s)
		if len(graph.NewScratch().Components(g, nil)) == 1 {
			return g
		}
	}
}

// libRun is one checked Engine.Run.
type libRun struct {
	out    *strongdecomp.Outcome
	ms     float64
	cpuMS  float64
	radius int
}

// runOnce executes and checks one decomposition; checking is outside the
// timed interval. want, when non-empty, is the digest the output must
// match.
func runOnce(ctx context.Context, e *strongdecomp.Engine, g *graph.Graph, algo string, ck *checker, want string) (libRun, error) {
	p := strongdecomp.Params{Algorithm: algo, Kind: strongdecomp.KindDecompose, Meter: true}
	c0, t0 := processCPU(), time.Now()
	out, err := e.Run(ctx, g, p)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	cpuMS := float64(processCPU()-c0) / float64(time.Millisecond)
	if err != nil {
		return libRun{}, err
	}
	r := libRun{out: out, ms: ms, cpuMS: cpuMS}
	if r.radius, err = ck.check(g, out.Decomposition); err != nil {
		return r, err
	}
	if want != "" {
		if got := decompDigest(out.Decomposition); got != want {
			return r, fmt.Errorf("%s digest %s, want %s", algo, got, want)
		}
	}
	return r, nil
}

// libSetup is the set-up a library run pays before measuring: generate
// the graph, build the engine, and run one checked warm-up decomposition
// whose output becomes the reference every measured operation must
// reproduce.
type libSetup struct {
	g      *graph.Graph
	e      *strongdecomp.Engine
	ref    libRun
	digest string
	genMS  float64
}

func setupLibrary(cfg config, ck *checker) (*libSetup, error) {
	t0 := time.Now()
	g := libraryGraph(cfg)
	s := &libSetup{g: g, genMS: float64(time.Since(t0)) / float64(time.Millisecond)}
	s.e = strongdecomp.NewEngine()
	ref, err := runOnce(context.Background(), s.e, g, cfg.algo, ck, "")
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	s.ref, s.digest = ref, decompDigest(ref.out.Decomposition)
	return s, nil
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 5

// runLibrary runs a library workload on one processor. Each input is a
// single component, which the engine decomposes on one goroutine, so a
// second processor would only run the garbage collector beside it and
// spin idle; with one, an operation's CPU time is its own work and stays
// the same when other processes contend for the host.
func runLibrary(cfg config) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := newOutcome()
	o.notes["gomaxprocs"] = runtime.GOMAXPROCS(0)
	ck := &checker{}
	var setups []float64
	var s *libSetup
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if s, err = setupLibrary(cfg, ck); err != nil {
			o.attempted++
			o.fail("%s: %v", cfg.workload, err)
			return o, nil
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.values["setup_s"] = median(setups)
	o.values["setup.gen_ms"] = s.genMS
	o.notes["graph"] = map[string]int{"n": s.g.N(), "m": s.g.M()}
	o.notes["digest"] = s.digest
	if cfg.trace {
		traceLibrary(cfg, s, ck, o)
	} else {
		measureLibrary(cfg, s, o)
	}
	if v, err := peakRSSMB(0); err == nil {
		o.values["peak_rss_mb"] = v
	}
	o.values["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	return o, nil
}

// measureLibrary is the untraced run: a closed loop with one caller for
// the whole measured time. Every output is checked against the reference.
func measureLibrary(cfg config, s *libSetup, o *outcome) {
	var ms, cpu []float64
	ck := &checker{}
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(end); first = false {
		o.attempted++
		r, err := runOnce(context.Background(), s.e, s.g, cfg.algo, ck, s.digest)
		if err != nil {
			o.fail("%s op %d: %v", cfg.workload, o.attempted, err)
			continue
		}
		ms = append(ms, r.ms)
		cpu = append(cpu, r.cpuMS)
	}
	setWallTimes(o, ms)
	o.values["cpu_ms_per_op"] = median(cpu)
	d := s.ref.out.Decomposition
	o.values["colors"] = float64(d.Colors)
	o.values["cluster_radius_max"] = float64(s.ref.radius)
	o.values["rounds"] = float64(s.ref.out.Rounds)
	fmt.Fprintf(os.Stderr, "perfbench: %s n=%d: cpu p50 %.1f ms; decompose p50 %.1f ms, p%d %.1f ms over %d ops\n",
		cfg.workload, s.g.N(), o.values["cpu_ms_per_op"], median(ms), tailPercentile(len(ms)), o.values["decompose_ms.tail"], len(ms))
}

// setWallTimes sets the per-layer wall-clock figures of the untraced
// operations: their median and tail, and the one-caller latency.
func setWallTimes(o *outcome, ms []float64) {
	tail := tailPercentile(len(ms))
	o.notes["decompose_ms.tail"] = map[string]int{"percentile": tail, "samples": len(ms)}
	o.values["decompose_ms.p50"] = median(ms)
	o.values["decompose_ms.tail"] = quantile(ms, float64(tail)/100)
	o.values["latency_low.p50_ms"] = median(ms)
}

// traceLibrary is the traced run. It alternates an untraced
// chang-ghaffari operation with one through the traced construction on an
// instrumented context, so both see the same machine state; the traced
// output must match chang-ghaffari's digest. Layer self times are
// differences of the inclusive times the traced construction records.
func traceLibrary(cfg config, s *libSetup, ck *checker, o *outcome) {
	var (
		plain, full                       []float64
		rgMS, thmMS, decMS, engMS, splitM []float64
		mergeMS                           []float64
		rgCalls, rgNodes, rgFrac, rgAlloc []float64
		thmCalls, thmAlloc                []float64
		rounds                            = map[string][]float64{}
		cpu                               []float64
	)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	merges0 := s.e.Stats().ComponentMerges
	heapMax := 0.0
	ops := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		o.attempted++
		r, err := runOnce(context.Background(), s.e, s.g, cfg.algo, ck, s.digest)
		if err != nil {
			o.fail("%s untraced op: %v", cfg.workload, err)
			continue
		}
		plain = append(plain, r.ms)
		cpu = append(cpu, r.cpuMS)

		layerClock = layerTotals{}
		ctx := obs.WithRequest(context.Background(), obs.NewCollector(nil), obs.NewTrace())
		o.attempted++
		r, err = runOnce(ctx, s.e, s.g, tracedAlgo, ck, s.digest)
		if err != nil {
			o.fail("%s traced op: %v", cfg.workload, err)
			continue
		}
		ops += 2
		lc := layerClock
		full = append(full, r.ms)
		rgMS = append(rgMS, ns2ms(lc.rgNS))
		thmMS = append(thmMS, ns2ms(lc.thmNS-lc.rgNS))
		decMS = append(decMS, ns2ms(lc.decNS-lc.thmNS))
		engMS = append(engMS, r.ms-ns2ms(lc.decNS))
		var split, merge float64
		for _, st := range r.out.Stages {
			switch st.Name {
			case "split":
				split += float64(st.Elapsed) / float64(time.Millisecond)
			case "merge":
				merge += float64(st.Elapsed) / float64(time.Millisecond)
			}
		}
		splitM = append(splitM, split)
		mergeMS = append(mergeMS, merge)
		rgCalls = append(rgCalls, float64(lc.rgCalls))
		rgNodes = append(rgNodes, float64(lc.rgNodes))
		rgFrac = append(rgFrac, float64(lc.rgNodes)/float64(max(lc.rgHostN, 1)))
		rgAlloc = append(rgAlloc, float64(lc.rgAlloc)/(1<<20))
		thmCalls = append(thmCalls, float64(lc.thmCalls))
		thmAlloc = append(thmAlloc, float64(lc.thmAlloc-lc.rgAlloc)/(1<<20))
		for _, k := range []string{"rg/propose", "rg/aggregate", "rg/congestion", "thm21/gather", "thm21/bfs"} {
			rounds[k] = append(rounds[k], float64(lc.rounds[k]))
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heapMax = max(heapMax, float64(m.HeapInuse)/(1<<20))
	}
	runtime.ReadMemStats(&ms1)
	if len(full) == 0 {
		return
	}
	base, traced50 := median(plain), median(full)
	setWallTimes(o, plain)
	o.values["cpu_ms_per_op"] = median(cpu)
	v := o.values
	v["rg.carve_ms"] = median(rgMS)
	v["rg.carve_share_pct"] = 100 * median(rgMS) / traced50
	v["rg.calls"] = median(rgCalls)
	v["rg.nodes"] = median(rgNodes)
	v["rg.set_fraction"] = median(rgFrac)
	v["rg.alloc_mb"] = median(rgAlloc)
	v["core.thm21.self_ms"] = median(thmMS)
	v["core.thm21.self_share_pct"] = 100 * median(thmMS) / traced50
	v["core.thm21.calls"] = median(thmCalls)
	v["core.thm21.alloc_mb"] = median(thmAlloc)
	v["core.decompose.self_ms"] = median(decMS)
	v["engine.self_ms"] = median(engMS)
	v["engine.split_ms"] = median(splitM)
	v["engine.merge_ms"] = median(mergeMS)
	v["engine.component_merges"] = float64(s.e.Stats().ComponentMerges-merges0) / float64(ops)
	v["rounds.rg_propose"] = median(rounds["rg/propose"])
	v["rounds.rg_aggregate"] = median(rounds["rg/aggregate"])
	v["rounds.rg_congestion"] = median(rounds["rg/congestion"])
	v["rounds.thm21_gather"] = median(rounds["thm21/gather"])
	v["rounds.thm21_bfs"] = median(rounds["thm21/bfs"])
	v["gc.cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / float64(ops)
	v["gc.pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(ops)
	v["heap_inuse_mb"] = heapMax
	selfSum := median(rgMS) + median(thmMS) + median(decMS) + median(engMS)
	v["layers.sum_gap_pct"] = 100 * (selfSum - base) / base
	v["latency_low.p99_ms"] = quantile(plain, 0.99)
	v["trace.overhead_pct"] = 100 * (traced50 - base) / base
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: untraced p50 %.1f ms, traced p50 %.1f ms; rg %.1f ms (%.0f%%), thm21 self %.1f ms (%.0f%%), decompose self %.2f ms, engine self %.2f ms\n",
		cfg.workload, base, traced50, v["rg.carve_ms"], v["rg.carve_share_pct"], v["core.thm21.self_ms"], v["core.thm21.self_share_pct"], v["core.decompose.self_ms"], v["engine.self_ms"])
}

func ns2ms(ns int64) float64 { return float64(ns) / 1e6 }
