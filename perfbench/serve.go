package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"strongdecomp"
	"strongdecomp/internal/apps"
	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// The serve workload's fixed settings. A change that claims a gain may
// not edit them: they define what the serve figures mean.
const (
	// serveGraphCount graphs are uploaded, each the disjoint union of
	// servePieces expander, grid and tree pieces of servePieceSide² nodes
	// (3024 nodes in all). Pieces of a few hundred nodes keep clusters
	// small (the MIS and colouring apps are quadratic in cluster size),
	// and every compute fans out over many components and merges them.
	serveGraphCount = 6
	servePieces     = 7
	servePieceSide  = 12
	// seedSpace algorithm seeds per graph, drawn Zipf(zipfS): the key
	// space (graphs × seeds) far exceeds the server's 256-entry result
	// LRU, so new keys (misses) keep arriving and evicted keys come back
	// from the disk tier.
	seedSpace = 4096
	zipfS     = 1.2
	// appPercent of requests go to /v2/apps/{mis,coloring}, half each,
	// the rest to /v1/decompose.
	appPercent = 20
	// rateLow and rateHigh are the two fixed open-loop rates (requests
	// per second) at which latency_low.* and latency_high.* are measured.
	rateLow  = 60
	rateHigh = 150
	// latencyLimitMS is the p99 limit a ladder step must meet to count
	// towards max_rps.
	latencyLimitMS = 150
)

// rateLadder is the fixed ladder max_rps climbs, in requests per second:
// 10% steps upwards from rateHigh, which the high phase has just held.
var rateLadder = func() []float64 {
	var out []float64
	for r := float64(rateHigh); len(out) < 18; {
		r *= 1.1
		out = append(out, math.Round(r))
	}
	return out
}()

// endpoints of the request mix.
const (
	epDecompose = iota
	epMIS
	epColoring
)

var endpointPath = [...]string{"/v1/decompose", "/v2/apps/mis", "/v2/apps/coloring"}

// serveInput is the generated graph set.
type serveInput struct {
	graphs []*graph.Graph
	hashes []string
	genMS  float64
}

// serveGraph builds one uploaded graph: the disjoint union of pieces
// rounds of an expander, a grid and a binary tree of side² nodes each.
// Only the expanders' wiring comes from the seed, so graph sets drawn
// from different seeds cost about the same to decompose and their
// quality figures (set by the grid and tree pieces) do not vary.
func serveGraph(rng *rand.Rand, pieces, side int) *graph.Graph {
	var gs []*graph.Graph
	for i := 0; i < pieces; i++ {
		gs = append(gs,
			connectedExpander(side*side, rng.Int63()),
			graph.Grid(side, side),
			graph.BinaryTree(side*side))
	}
	return graph.DisjointUnion(gs...)
}

func makeServeInput(cfg config) *serveInput {
	t0 := time.Now()
	count, pieces, side := serveGraphCount, servePieces, servePieceSide
	if cfg.tiny {
		count, pieces, side = 2, 2, 6
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &serveInput{}
	for i := 0; i < count; i++ {
		g := serveGraph(rng, pieces, side)
		in.graphs = append(in.graphs, g)
		in.hashes = append(in.hashes, strongdecomp.HashGraph(g))
	}
	in.genMS = float64(time.Since(t0)) / float64(time.Millisecond)
	return in
}

// server is one cmd/serve child with its own temporary data directory
// and span log.
type server struct {
	cmd    *exec.Cmd
	dir    string
	log    *os.File
	base   string
	client *http.Client
	exited chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the child with default flags plus a fresh
// -data-dir (and a free loopback -addr) and waits until it is ready.
func startServer(bin string, conns int) (*server, error) {
	if bin == "" {
		return nil, errors.New("serve workload needs --serve-bin")
	}
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", filepath.Join(dir, "data"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server gets one processor and the load generator the other
	// (runServe), so on a 2-CPU host neither takes time from the other
	// and the server's CPU time per request holds from run to run.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd: cmd, dir: dir, log: logf, base: "http://" + addr,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no information
		close(s.exited)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		select {
		case <-s.exited:
			s.stop()
			return nil, errors.New("serve exited before becoming ready")
		default:
		}
		if resp, err := s.client.Get(s.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("serve not ready after 30s")
		}
	}
}

// peakRSS reads the child's own VmHWM; call it before stop.
func (s *server) peakRSS() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// stop terminates the child and waits for it to exit. Its log and data
// stay in s.dir until removeDir.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

func (s *server) removeDir() { os.RemoveAll(s.dir) }

// upload posts every graph and checks the returned content hash.
func (s *server) upload(in *serveInput) (float64, error) {
	t0 := time.Now()
	for i, g := range in.graphs {
		body, err := json.Marshal(graphio.ToDocument(g))
		if err != nil {
			return 0, err
		}
		resp, err := s.client.Post(s.base+"/v1/graphs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("upload graph %d: %w", i, err)
		}
		var got struct{ Hash string }
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("upload graph %d: status %d: %v", i, resp.StatusCode, err)
		}
		if got.Hash != in.hashes[i] {
			return 0, fmt.Errorf("upload graph %d: server hash %s, want %s", i, got.Hash, in.hashes[i])
		}
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), nil
}

// request is one scheduled request of the open loop.
type request struct {
	id    int
	due   time.Duration // offset from the phase start
	graph int
	seed  int64
	ep    int
}

// key identifies a cacheable answer: endpoint, graph and seed.
type key struct {
	ep, graph int
	seed      int64
}

func (r request) key() key { return key{r.ep, r.graph, r.seed} }

// mix draws the request stream: Zipf-popular (graph, seed) keys and the
// endpoint. Both come from Kronecker (golden-ratio and √2) sequences
// started at offsets drawn from the workload seed rather than from
// independent random draws: every stretch of the stream then holds each
// key and each endpoint in almost exactly its share, so the rate at which
// new keys (misses) arrive, and with it the work per request, does not
// vary by seed, while which key comes when does.
type mix struct {
	cdf    []float64 // cdf[k] = P(rank <= k), Zipf(zipfS) over the keys
	u, v   float64   // positions in the key and endpoint sequences
	graphs int
	next   int
}

func newMix(seed int64, graphs int) *mix {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cdf := make([]float64, graphs*seedSpace)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &mix{cdf: cdf, u: rng.Float64(), v: rng.Float64(), graphs: graphs}
}

// phase schedules rate·dur requests, at least one, at exact 1/rate
// spacing.
func (m *mix) phase(rate float64, dur time.Duration) []request {
	count := max(1, int(rate*dur.Seconds()))
	out := make([]request, count)
	for i := range out {
		_, m.u = math.Modf(m.u + (math.Sqrt(5)-1)/2)
		_, m.v = math.Modf(m.v + math.Sqrt2 - 1)
		k := min(sort.SearchFloat64s(m.cdf, m.u), len(m.cdf)-1)
		ep := epDecompose
		if m.v < appPercent/100.0 {
			ep = epMIS + int(m.v*200/appPercent)%2
		}
		out[i] = request{
			id: m.next, due: time.Duration(float64(i) / rate * float64(time.Second)),
			graph: k % m.graphs, seed: int64(k / m.graphs), ep: ep,
		}
		m.next++
	}
	return out
}

// wireResult is the part of a served answer the benchmark checks.
type wireResult struct {
	K         int     `json:"k"`
	Colors    int     `json:"colors"`
	Assign    []int   `json:"assign"`
	Color     []int   `json:"color"`
	Rounds    int64   `json:"rounds"`
	Cached    bool    `json:"cached"`
	Shared    bool    `json:"shared"`
	ElapsedMS float64 `json:"elapsed_ms"`
	InMIS     []bool  `json:"in_mis"`
	ColorOf   []int   `json:"color_of"`
	Palette   int     `json:"palette_size"`
}

// answerDigest fingerprints the part of an answer that must equal the
// library's: the decomposition for /v1/decompose, the app output else.
func answerDigest(ep int, w *wireResult) string {
	switch ep {
	case epMIS:
		ints := make([]int, len(w.InMIS))
		for i, in := range w.InMIS {
			if in {
				ints[i] = 1
			}
		}
		return digest(0, 0, ints, nil)
	case epColoring:
		return digest(0, w.Palette, w.ColorOf, nil)
	}
	return digest(w.K, w.Colors, w.Assign, w.Color)
}

// sample is one completed request. Latency runs from the due time, so a
// stall is charged to every request it delays.
type sample struct {
	request
	sent    time.Time
	latMS   float64 // done - due
	svcMS   float64 // done - sent
	queueMS float64 // sent - due: waiting for a free connection
	lagMS   float64 // dispatch - due: how late the generator ran
	status  int
	err     error
	bytes   int
	cached  bool
	shared  bool
	elapsed float64
	digest  string
	// body is the raw answer until decode has run.
	body []byte
	// result is kept for the first answer of each key only.
	result *wireResult
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// loadgen is the open-loop generator: one dispatcher releases requests at
// their due times into a queue served by at most conns keep-alive
// connections.
type loadgen struct {
	srv   *server
	in    *serveInput
	conns int
	seen  map[key]bool
}

// runPhase sends reqs open loop and returns their samples once all have
// completed; backlog is how many requests were queued behind busy
// connections when the last one fell due.
func (lg *loadgen) runPhase(reqs []request) (out []sample, backlog int) {
	out = make([]sample, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var started atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				lg.do(&out[i], start)
			}
		}()
	}
	for i, r := range reqs {
		out[i].request = r
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		out[i].lagMS = msSince(due)
		queue <- i
	}
	backlog = len(reqs) - int(started.Load())
	close(queue)
	wg.Wait()
	for i := range out {
		lg.decode(&out[i])
	}
	return out, backlog
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (lg *loadgen) do(s *sample, start time.Time) {
	due := start.Add(s.due)
	s.sent = time.Now()
	s.queueMS = float64(s.sent.Sub(due)) / float64(time.Millisecond)
	body := fmt.Sprintf(`{"hash":%q,"seed":%d}`, lg.in.hashes[s.graph], s.seed)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, lg.srv.base+endpointPath[s.ep], strings.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Strongdecomp-Trace", fmt.Sprintf("%s:s%d:0", traceID(s.id), s.id))
	resp, err := lg.srv.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.latMS, s.svcMS = msSince(due), msSince(s.sent)
	if err != nil {
		s.err = err
		return
	}
	s.body = data
}

// decode parses and fingerprints a completed answer. It runs after the
// phase has ended, so the generator spends no CPU on it while measuring.
func (lg *loadgen) decode(s *sample) {
	data := s.body
	s.body, s.bytes = nil, len(data)
	if s.err != nil {
		return
	}
	if s.status != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(data))
		return
	}
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		s.err = fmt.Errorf("decode answer: %w", err)
		return
	}
	s.cached, s.shared, s.elapsed = w.Cached, w.Shared, w.ElapsedMS
	s.digest = answerDigest(s.ep, &w)
	if !lg.seen[s.key()] {
		lg.seen[s.key()] = true
		s.result = &w
	}
}

func traceID(id int) string { return "pb" + strconv.Itoa(id) }

// serveSetup starts a fresh server and uploads the graph set.
func serveSetup(cfg config, conns int) (*server, *serveInput, float64, error) {
	in := makeServeInput(cfg)
	srv, err := startServer(cfg.serveBin, conns)
	if err != nil {
		return nil, nil, 0, err
	}
	upMS, err := srv.upload(in)
	if err != nil {
		srv.stop()
		srv.removeDir()
		return nil, nil, 0, err
	}
	return srv, in, upMS, nil
}

// serveSetupRepeats is how many servers a run starts and loads before
// measuring on the last; setup_s is the median. A serve set-up takes tens
// of milliseconds, so it takes more repeats than a library one to settle.
const serveSetupRepeats = 15

func runServe(cfg config) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := newOutcome()
	o.notes["gomaxprocs"] = map[string]int{"loadgen": 1, "server": 1}
	conns := runtime.NumCPU()
	var (
		err    error
		setups []float64
		srv    *server
		in     *serveInput
		upMS   float64
	)
	for i := 0; i < serveSetupRepeats; i++ {
		if srv != nil {
			srv.stop()
			srv.removeDir()
		}
		t0 := time.Now()
		if srv, in, upMS, err = serveSetup(cfg, conns); err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.removeDir()
	o.values["setup_s"] = median(setups)
	o.values["graphio.upload_ms"] = upMS
	o.values["setup.gen_ms"] = in.genMS

	lg := &loadgen{srv: srv, in: in, conns: conns, seen: map[key]bool{}}
	m := newMix(cfg.seed, len(in.graphs))
	// The time splits into a warm-up that fills the caches (an eighth),
	// alternating low- and high-rate blocks (four of each, a sixteenth
	// each, so both rates span the same stretch of the run) and the
	// ladder, whose 18 rungs take at most half of it.
	part := func(f float64) time.Duration { return time.Duration(cfg.seconds * f * float64(time.Second)) }
	before, err := srv.snapshot()
	if err != nil {
		srv.stop()
		return nil, err
	}
	scale := 1.0
	if cfg.tiny {
		scale = 0.25
	}
	warm, _ := lg.runPhase(m.phase(rateHigh*scale, part(1.0/8)))
	// cpu_ms_per_op is the server's CPU time over the fixed-rate blocks
	// divided by their requests; the warm-up and the ladder, whose length
	// depends on how far it climbs, are left out.
	cpu0, err := childCPU(srv.cmd.Process.Pid)
	if err != nil {
		srv.stop()
		return nil, err
	}
	var low, high []sample
	for b := 0; b < 8; b++ {
		if b%2 == 0 {
			ss, _ := lg.runPhase(m.phase(rateLow*scale, part(1.0/16)))
			low = append(low, ss...)
		} else {
			ss, _ := lg.runPhase(m.phase(rateHigh*scale, part(1.0/16)))
			high = append(high, ss...)
		}
	}
	cpu1, err := childCPU(srv.cmd.Process.Pid)
	if err != nil {
		srv.stop()
		return nil, err
	}
	o.values["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(low)+len(high))

	maxRPS, steps, ladderSamples := lg.climb(m, scale, part(1.0/36))
	all := slices.Concat(warm, low, high, ladderSamples)
	// The checks below mark failed requests in all; low and high must see
	// those marks.
	low = all[len(warm) : len(warm)+len(low)]
	high = all[len(warm)+len(low) : len(warm)+len(low)+len(high)]
	after, err := srv.snapshot()
	if err != nil {
		srv.stop()
		return nil, err
	}
	if v, err := srv.peakRSS(); err == nil {
		o.values["peak_rss_mb"] = v
	}
	srv.stop()
	o.notes["ladder"] = steps

	verifyServe(in, all, o)
	o.values["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	limited := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.latMS
			if !s.ok() {
				out[i] = math.Max(s.latMS, 10*latencyLimitMS) // a failure misses the limit
			}
		}
		return out
	}
	var computeMS []float64
	for _, s := range all {
		if s.ok() && s.ep == epDecompose && !s.cached && !s.shared {
			computeMS = append(computeMS, s.elapsed)
		}
	}
	tail := tailPercentile(len(computeMS))
	o.notes["decompose_ms.tail"] = map[string]int{"percentile": tail, "samples": len(computeMS)}
	o.notes["latency"] = map[string]any{"low_rps": rateLow * scale, "high_rps": rateHigh * scale, "low_samples": len(low), "high_samples": len(high), "limit_ms": latencyLimitMS}
	v := o.values
	v["decompose_ms.p50"] = median(computeMS)
	v["decompose_ms.tail"] = quantile(computeMS, float64(tail)/100)
	v["latency_low.p50_ms"] = median(limited(low))
	v["latency_low.p99_ms"] = quantile(limited(low), 0.99)
	v["latency_high.p50_ms"] = median(limited(high))
	v["latency_high.p99_ms"] = quantile(limited(high), 0.99)
	v["max_rps"] = maxRPS

	var lag, queue []float64
	for _, s := range append(low, high...) {
		lag = append(lag, s.lagMS)
		queue = append(queue, s.queueMS)
	}
	v["loadgen.lag_ms.p99"] = quantile(lag, 0.99)
	v["loadgen.queue_ms.p99"] = quantile(queue, 0.99)
	if cfg.trace {
		serveLayers(srv, all, before, after, o)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve: server cpu %.3f ms/request; low %g rps p50 %.2f p99 %.2f ms; high %g rps p50 %.2f p99 %.2f ms; max_rps %g; compute p50 %.2f ms over %d\n",
		v["cpu_ms_per_op"], rateLow*scale, v["latency_low.p50_ms"], v["latency_low.p99_ms"], rateHigh*scale, v["latency_high.p50_ms"], v["latency_high.p99_ms"], maxRPS, v["decompose_ms.p50"], len(computeMS))
	return o, nil
}

// ladderStep is one rung of the max_rps climb.
type ladderStep struct {
	RPS     float64 `json:"rps"`
	P99MS   float64 `json:"p99_ms"`
	Backlog int     `json:"backlog"`
	// BacklogMS is how long the backlog left when the last request fell
	// due takes to drain at the rung's rate.
	BacklogMS float64 `json:"backlog_ms"`
	Failed    int     `json:"failed"`
	LagMS     float64 `json:"lag_p99_ms"`
	Met       bool    `json:"met"`
}

// climb runs the rate ladder, each rung for the same time per. A rung is
// met when its p99 is within the limit, no request failed and the
// backlog left when its last request fell due drains within half the
// limit at the rung's rate (no growing backlog). The climb stops at the
// second unmet rung in a row, so one transient stall does not end it;
// max_rps is the highest rung met below that point.
func (lg *loadgen) climb(m *mix, scale float64, per time.Duration) (float64, []ladderStep, []sample) {
	var (
		best   float64
		steps  []ladderStep
		all    []sample
		missed int
	)
	for _, rps := range rateLadder {
		ss, backlog := lg.runPhase(m.phase(rps*scale, per))
		all = append(all, ss...)
		st := ladderStep{RPS: rps * scale, Backlog: backlog, BacklogMS: 1000 * float64(backlog) / (rps * scale)}
		lat := make([]float64, 0, len(ss))
		lag := make([]float64, 0, len(ss))
		for _, s := range ss {
			lat = append(lat, s.latMS)
			lag = append(lag, s.lagMS)
			if !s.ok() {
				st.Failed++
			}
		}
		st.P99MS, st.LagMS = quantile(lat, 0.99), quantile(lag, 0.99)
		st.Met = st.P99MS <= latencyLimitMS && st.Failed == 0 && st.BacklogMS <= latencyLimitMS/2
		steps = append(steps, st)
		if !st.Met {
			if missed++; missed == 2 {
				break
			}
			continue
		}
		missed, best = 0, st.RPS
	}
	return best, steps, all
}

// verifyServe checks every answer: a 200 status; the first answer of each
// key passes the structural check for its kind (decomposition: cover,
// colours, same-colour non-adjacency and connected clusters; MIS:
// independence and maximality; colouring: proper within Δ+1 colours);
// every later answer of the key has the same digest; and a sample of
// keys, among them every graph's most popular one, matches a library
// Engine.Run (and library app) on the same graph and seed. It also sets
// the paper's quality figures from those library references.
func verifyServe(in *serveInput, all []sample, o *outcome) {
	first := map[key]*sample{}
	var order []key
	for i := range all {
		if s := &all[i]; s.result != nil {
			first[s.key()] = s
			order = append(order, s.key())
		}
	}
	bad := map[key]string{}
	ck := &checker{}
	for _, k := range order {
		s := first[k]
		g := in.graphs[k.graph]
		w := s.result
		var err error
		switch k.ep {
		case epDecompose:
			_, err = ck.check(g, &cluster.Decomposition{Assign: w.Assign, Color: w.Color, K: w.K, Colors: w.Colors})
		case epMIS:
			err = apps.VerifyMIS(g, w.InMIS)
		case epColoring:
			if w.Palette != g.MaxDegree()+1 {
				err = fmt.Errorf("palette %d, want %d", w.Palette, g.MaxDegree()+1)
			} else {
				err = apps.VerifyColoring(g, w.ColorOf, w.Palette)
			}
		}
		if err != nil {
			bad[k] = err.Error()
		}
	}

	// Library references: each graph's most popular key (seed 0) plus an
	// evenly spaced sample of the keys seen, at most 32 in all.
	refKeys := map[key]bool{}
	for gi := range in.graphs {
		refKeys[key{epDecompose, gi, 0}] = true
	}
	for i, stride := 0, max(1, len(order)/24); i < len(order); i += stride {
		refKeys[order[i]] = true
	}
	e := strongdecomp.NewEngine()
	type libRef struct {
		dec    *cluster.Decomposition
		rounds int64
		radius int
	}
	refs := map[[2]int64]libRef{}
	colors, radius, rnds := 0, 0, int64(0)
	want := map[key]string{}
	for k := range refKeys {
		rk := [2]int64{int64(k.graph), k.seed}
		g := in.graphs[k.graph]
		ref, ok := refs[rk]
		if !ok {
			out, err := e.Run(context.Background(), g, strongdecomp.Params{
				Algorithm: strongdecomp.DefaultAlgorithm, Kind: strongdecomp.KindDecompose, Seed: k.seed, Meter: true,
			})
			if err != nil {
				o.attempted++
				o.fail("library reference graph %d seed %d: %v", k.graph, k.seed, err)
				continue
			}
			ref = libRef{dec: out.Decomposition, rounds: out.Rounds}
			if ref.radius, err = ck.check(g, ref.dec); err != nil {
				o.attempted++
				o.fail("library reference graph %d seed %d: %v", k.graph, k.seed, err)
				continue
			}
			refs[rk] = ref
			if k.seed == 0 {
				colors, radius, rnds = max(colors, ref.dec.Colors), max(radius, ref.radius), max(rnds, ref.rounds)
			}
		}
		switch k.ep {
		case epDecompose:
			want[k] = decompDigest(ref.dec)
			if s := first[k]; s != nil && s.result.Rounds != ref.rounds {
				bad[k] = fmt.Sprintf("rounds %d, library %d", s.result.Rounds, ref.rounds)
			}
		case epMIS:
			in, err := apps.MIS(g, ref.dec, nil)
			if err == nil {
				want[k] = answerDigest(epMIS, &wireResult{InMIS: in})
			}
		case epColoring:
			c, err := apps.ColorGraph(g, ref.dec, nil)
			if err == nil {
				want[k] = answerDigest(epColoring, &wireResult{ColorOf: c, Palette: g.MaxDegree() + 1})
			}
		}
	}
	o.values["colors"] = float64(colors)
	o.values["cluster_radius_max"] = float64(radius)
	o.values["rounds"] = float64(rnds)
	o.notes["library_checked_keys"] = len(want)

	// A request that fails its check is marked failed, so it also counts
	// as missing the latency limit.
	for i := range all {
		s := &all[i]
		o.attempted++
		k := s.key()
		var err error
		switch {
		case !s.ok():
			err = s.err
		case bad[k] != "":
			err = fmt.Errorf("graph %d seed %d: %s", k.graph, k.seed, bad[k])
		case first[k] == nil:
			err = errors.New("no first answer recorded for its key")
		case s.digest != first[k].digest:
			err = fmt.Errorf("graph %d seed %d: digest %s differs from earlier answer %s", k.graph, k.seed, s.digest, first[k].digest)
		case want[k] != "" && s.digest != want[k]:
			err = fmt.Errorf("graph %d seed %d: digest %s, library %s", k.graph, k.seed, s.digest, want[k])
		}
		if err != nil {
			s.err = err
			o.fail("request %d %s: %v", s.id, endpointPath[s.ep], err)
		}
	}
}

// serverCounters is the slice of /metrics the per-layer figures use.
type serverCounters struct {
	resultSaves, merges, computes int64
	gcCycles, gcPauseS, heapBytes float64
}

func (s *server) snapshot() (serverCounters, error) {
	var c serverCounters
	resp, err := s.client.Get(s.base + "/metrics?format=json")
	if err != nil {
		return c, err
	}
	var st struct {
		Persist *struct {
			ResultSaves int64 `json:"result_saves"`
		} `json:"persist"`
		Runner     map[string]int64 `json:"runner"`
		Algorithms map[string]struct {
			Computes int64 `json:"computes"`
		} `json:"algorithms"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("decode /metrics?format=json: %w", err)
	}
	if st.Persist != nil {
		c.resultSaves = st.Persist.ResultSaves
	}
	c.merges = st.Runner["component_merges"]
	for _, a := range st.Algorithms {
		c.computes += a.Computes
	}
	resp, err = s.client.Get(s.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case "strongdecomp_gc_cycles_total":
			c.gcCycles = x
		case "strongdecomp_gc_pause_seconds_total":
			c.gcPauseS = x
		case "strongdecomp_heap_alloc_bytes":
			c.heapBytes = x
		}
	}
	return c, sc.Err()
}

// spanRecord is one span line of the server's JSON log.
type spanRecord struct {
	Msg        string  `json:"msg"`
	TraceID    string  `json:"trace_id"`
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
	Tier       string  `json:"tier"`
	App        string  `json:"app"`
}

// serveLayers derives the per-layer figures of a serve run from the
// server's span log (joined to requests by the trace id each request
// carried), the /metrics deltas and the wire flags.
func serveLayers(srv *server, all []sample, before, after serverCounters, o *outcome) {
	byTrace := make(map[string]*sample, len(all))
	for i := range all {
		byTrace[traceID(all[i].id)] = &all[i]
	}
	type reqSpans struct {
		tier                                   string
		compute, carve, split, merge, appRun   float64
		hasCompute, hasSplit, hasMerge, hasApp bool
	}
	spans := map[string]*reqSpans{}
	f, err := os.Open(filepath.Join(srv.dir, "serve.log"))
	if err != nil {
		o.attempted++
		o.fail("open span log: %v", err)
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var r spanRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Msg != "span" || byTrace[r.TraceID] == nil {
			continue
		}
		rs := spans[r.TraceID]
		if rs == nil {
			rs = &reqSpans{}
			spans[r.TraceID] = rs
		}
		switch r.Stage {
		case "cache":
			// The outermost tier answer: an app request's own app-cache
			// hit, or a decompose request's result-cache hit.
			if (r.App != "") == (byTrace[r.TraceID].ep != epDecompose) {
				rs.tier = r.Tier
			}
		case "compute":
			rs.compute, rs.hasCompute = rs.compute+r.DurationMS, true
		case "carve-rounds":
			rs.carve += r.DurationMS
		case "split":
			rs.split, rs.hasSplit = rs.split+r.DurationMS, true
		case "merge":
			rs.merge, rs.hasMerge = rs.merge+r.DurationMS, true
		case "app-run":
			rs.appRun, rs.hasApp = r.DurationMS, true
		}
	}
	var (
		lru, disk, miss, shared, decReqs float64
		hitMS, overMS, appMS             []float64
		engSelf, split, merge            []float64
		bytesTotal                       float64
	)
	for i := range all {
		s := &all[i]
		if !s.ok() {
			continue
		}
		bytesTotal += float64(s.bytes)
		rs := spans[traceID(s.id)]
		if rs == nil {
			rs = &reqSpans{}
		}
		if rs.hasCompute {
			engSelf = append(engSelf, rs.compute-rs.carve)
		}
		if rs.hasSplit {
			split = append(split, rs.split)
		}
		if rs.hasMerge {
			merge = append(merge, rs.merge)
		}
		if rs.hasApp {
			appMS = append(appMS, rs.appRun)
		}
		if s.ep != epDecompose {
			continue
		}
		decReqs++
		if s.shared {
			shared++
		}
		switch rs.tier {
		case "lru":
			lru++
			hitMS = append(hitMS, s.svcMS)
		case "disk":
			disk++
		default:
			miss++
			if !s.cached && !s.shared {
				overMS = append(overMS, s.svcMS-s.elapsed)
			}
		}
	}
	v := o.values
	decReqs = math.Max(decReqs, 1)
	v["service.lru_hit_ratio"] = lru / decReqs
	v["service.disk_hit_ratio"] = disk / decReqs
	v["service.miss_ratio"] = miss / decReqs
	v["service.dedup_shared"] = shared / decReqs
	v["persist.result_saves"] = float64(after.resultSaves - before.resultSaves)
	v["http.hit_ms.p50"] = median(hitMS)
	v["http.overhead_ms.p50"] = median(overMS)
	v["http.response_kb"] = bytesTotal / 1024 / math.Max(float64(len(all)), 1)
	v["apps.run_ms.p50"] = median(appMS)
	v["apps.run_ms.max"] = maxOf(appMS)
	v["engine.self_ms"] = median(engSelf)
	v["engine.split_ms"] = median(split)
	v["engine.merge_ms"] = median(merge)
	computes := math.Max(float64(after.computes-before.computes), 1)
	v["engine.component_merges"] = float64(after.merges-before.merges) / computes
	reqs := math.Max(float64(len(all)), 1)
	v["gc.cycles_per_op"] = (after.gcCycles - before.gcCycles) / reqs
	v["gc.pause_ms_per_op"] = 1000 * (after.gcPauseS - before.gcPauseS) / reqs
	v["heap_inuse_mb"] = after.heapBytes / (1 << 20)
	fmt.Fprintf(os.Stderr, "perfbench: serve layers: lru %.3f disk %.3f miss %.3f; hit p50 %.2f ms; http overhead p50 %.2f ms; app run p50 %.2f ms; engine self p50 %.2f ms\n",
		v["service.lru_hit_ratio"], v["service.disk_hit_ratio"], v["service.miss_ratio"], v["http.hit_ms.p50"], v["http.overhead_ms.p50"], v["apps.run_ms.p50"], v["engine.self_ms"])
}
