// Command perfbench is the repository's benchmark. It runs one workload
// per process — expander and grid drive the library's Engine.Run in a
// closed loop, serve drives a fresh cmd/serve child with an open-loop
// request stream — checks every output, and prints one JSON result line:
//
//	perfbench --workload expander|grid|serve --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, taken by timing calls into each layer's
// public functions from outside (library workloads) or from the server's
// own span log, /metrics and wire flags (serve). Build and launch it with
// run.sh from the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"strongdecomp"
)

// heldOutSeed is reserved for confirming a claimed gain: tune and
// develop on other seeds, then show the claim also holds here.
const heldOutSeed = 7919

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	// tiny shrinks every input so the harness self-test runs in seconds.
	tiny bool
	// algo is the construction the library workloads run; the self-test
	// swaps in faulty ones.
	algo string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units is the single table of metric names and units. Every workload
// emits every end-to-end metric (trace 0) or every per-layer metric
// (trace 1); a metric a workload does not exercise reads 0 and only
// occurs among the per-layer metrics.
var units = map[string]string{
	// end to end
	"setup_s":            "s",
	"peak_rss_mb":        "MB",
	"cpu_ms_per_op":      "ms",
	"colors":             "count",
	"cluster_radius_max": "hops",
	"rounds":             "count",
	// per layer
	"decompose_ms.p50":          "ms",
	"decompose_ms.tail":         "ms",
	"latency_low.p50_ms":        "ms",
	"latency_high.p50_ms":       "ms",
	"max_rps":                   "1/s",
	"latency_low.p99_ms":        "ms",
	"latency_high.p99_ms":       "ms",
	"error_rate":                "ratio",
	"rg.carve_ms":               "ms",
	"rg.carve_share_pct":        "%",
	"rg.calls":                  "count",
	"rg.nodes":                  "count",
	"rg.set_fraction":           "ratio",
	"rg.alloc_mb":               "MB",
	"core.thm21.self_ms":        "ms",
	"core.thm21.self_share_pct": "%",
	"core.thm21.calls":          "count",
	"core.thm21.alloc_mb":       "MB",
	"core.decompose.self_ms":    "ms",
	"rounds.rg_propose":         "count",
	"rounds.rg_aggregate":       "count",
	"rounds.rg_congestion":      "count",
	"rounds.thm21_gather":       "count",
	"rounds.thm21_bfs":          "count",
	"engine.self_ms":            "ms",
	"engine.split_ms":           "ms",
	"engine.merge_ms":           "ms",
	"engine.component_merges":   "count",
	"service.lru_hit_ratio":     "ratio",
	"service.disk_hit_ratio":    "ratio",
	"service.miss_ratio":        "ratio",
	"service.dedup_shared":      "ratio",
	"persist.result_saves":      "count",
	"http.hit_ms.p50":           "ms",
	"http.overhead_ms.p50":      "ms",
	"http.response_kb":          "KB",
	"apps.run_ms.p50":           "ms",
	"apps.run_ms.max":           "ms",
	"graphio.upload_ms":         "ms",
	"setup.gen_ms":              "ms",
	"gc.cycles_per_op":          "count",
	"gc.pause_ms_per_op":        "ms",
	"heap_inuse_mb":             "MB",
	"loadgen.lag_ms.p99":        "ms",
	"loadgen.queue_ms.p99":      "ms",
	"layers.sum_gap_pct":        "%",
	"trace.overhead_pct":        "%",
}

// endToEnd lists the metrics a --trace 0 run reports; every other name
// in units is per-layer.
var endToEnd = []string{
	"setup_s", "peak_rss_mb", "cpu_ms_per_op",
	"colors", "cluster_radius_max", "rounds",
}

// metricNames returns the names a run at the given trace level reports.
func metricNames(trace bool) []string {
	e2e := make(map[string]bool, len(endToEnd))
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range units {
		if e2e[n] != trace {
			out = append(out, n)
		}
	}
	return out
}

// outcome is what a workload hands back: measured values by name plus
// operation counts. Names missing from values are reported as 0.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]any{}}
}

// fail records one failed operation with its reason on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

func (o *outcome) report(trace bool) report {
	r := report{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range metricNames(trace) {
		r.Metrics[n] = metric{Value: o.values[n], Unit: units[n]}
	}
	return r
}

func run(cfg config) (*outcome, error) {
	switch cfg.workload {
	case "expander", "grid":
		return runLibrary(cfg)
	case "serve":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want expander, grid or serve)", cfg.workload)
}

// host records what a figure was measured on, so baselines are only
// ever compared on the same machine.
func host(cfg config) map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu_model":     model,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
	}
}

// peakRSSMB reads a process's own high-water resident set (VmHWM) from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in " + path)
}

// processCPU is the CPU time (user + system) all of this process's
// threads have used. The kernel leaves out time the hypervisor gave the
// virtual CPU to another guest, so on a shared host it moves with the
// program's own work and not with its neighbours' load.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only for a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is the CPU time (user + system) another process has used, from
// /proc/<pid>/stat, in clock ticks of 10 ms.
func childCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields 14 and 15 follow
	// its closing parenthesis as the 12th and 13th.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		t, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += t
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "expander, grid or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "cmd/serve binary built from this tree (serve workload)")
	flag.Parse()
	cfg.algo = strongdecomp.DefaultAlgorithm
	cfg.trace = trace == 1

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := out.report(cfg.trace)
	info := map[string]any{"host": host(cfg), "notes": out.notes}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(2)
	}
}
