package strongdecomp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"strongdecomp"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/service/httpapi"
)

// mustService builds a facade service for tests, failing the test on a
// construction error (only possible with a bad data directory).
func mustService(t *testing.T, opts ...strongdecomp.ServiceOption) *strongdecomp.Service {
	t.Helper()
	svc, err := strongdecomp.NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceFacadeGraphIO covers the facade's graph I/O re-exports,
// including the binary CSR snapshot format.
func TestServiceFacadeGraphIO(t *testing.T) {
	g := strongdecomp.TorusGraph(4, 4)
	dir := t.TempDir()
	for _, ext := range []string{".el", ".metis", ".json", ".csr"} {
		path := filepath.Join(dir, "g"+ext)
		if err := strongdecomp.SaveGraph(path, g); err != nil {
			t.Fatalf("SaveGraph(%s): %v", ext, err)
		}
		got, err := strongdecomp.LoadGraph(path)
		if err != nil {
			t.Fatalf("LoadGraph(%s): %v", ext, err)
		}
		if strongdecomp.HashGraph(got) != strongdecomp.HashGraph(g) {
			t.Fatalf("%s: content hash changed across save/load", ext)
		}
	}
}

// TestServiceHTTPAllAlgorithms pins the acceptance surface: the HTTP API
// over a real engine-backed service lists every registered construction.
func TestServiceHTTPAllAlgorithms(t *testing.T) {
	srv := httptest.NewServer(httpapi.New(mustService(t)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool, len(infos))
	for _, info := range infos {
		listed[info.Name] = true
	}
	for _, want := range strongdecomp.Algorithms() {
		if !listed[want] {
			t.Errorf("registered construction %q missing from /v1/algorithms", want)
		}
	}
	if len(listed) < 6 {
		t.Fatalf("only %d constructions listed, want the full registry (>= 6)", len(listed))
	}
}

// TestServiceHTTPRepeatCached: a repeated POST /v1/decompose with the same
// (graph, algo, eps, seed) is served from cache, observable both on the
// response and the /metrics hit counter.
func TestServiceHTTPRepeatCached(t *testing.T) {
	srv := httptest.NewServer(httpapi.New(mustService(t)))
	defer srv.Close()

	body := []byte(`{"graph": {"n": 8, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]]}, "algo": "chang-ghaffari", "seed": 1}`)
	var first, second struct {
		Cached bool  `json:"cached"`
		Assign []int `json:"assign"`
		K      int   `json:"k"`
	}
	for i, out := range []any{&first, &second} {
		resp, err := http.Post(srv.URL+"/v1/decompose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %s (%v)", i, resp.StatusCode, data, err)
		}
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatal(err)
		}
	}
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	if !second.Cached {
		t.Fatal("repeated identical request not served from cache")
	}
	if len(second.Assign) != 8 || second.K != first.K {
		t.Fatalf("cached payload differs: %+v vs %+v", second, first)
	}

	resp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats strongdecomp.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Fatalf("metrics: hits=%d misses=%d, want 1/1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.Runner["runs"] == 0 {
		t.Fatal("engine counters missing from /metrics")
	}
}

// TestServiceOneEngineServesEveryAlgorithm: one NewService computes for
// several algorithms on a single shared Engine, so the engine's run
// counter equals the sum of the per-algorithm computes (connected graphs:
// one engine run per compute), and there is no per-algorithm engine
// count left. An unknown name fails without reaching the stats table.
func TestServiceOneEngineServesEveryAlgorithm(t *testing.T) {
	svc := mustService(t, strongdecomp.WithServiceWorkers(2))
	defer svc.Close()
	ctx := context.Background()
	algos := []string{"chang-ghaffari", "mpx"}
	for _, algo := range algos {
		for seed := int64(1); seed <= 2; seed++ {
			req := &strongdecomp.ServiceRequest{Graph: strongdecomp.PathGraph(16), Algo: algo, Seed: seed}
			if _, err := svc.Decompose(ctx, req); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
		}
	}
	req := &strongdecomp.ServiceRequest{Graph: strongdecomp.PathGraph(16), Algo: "no-such-algo"}
	if _, err := svc.Decompose(ctx, req); !errors.Is(err, strongdecomp.ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}

	st := svc.Stats()
	var computes int64
	for _, algo := range algos {
		c := st.Algorithms[algo].Computes
		if c != 2 {
			t.Errorf("%s: computes = %d, want 2", algo, c)
		}
		computes += c
	}
	if got := st.Runner["runs"]; got != computes {
		t.Fatalf("Runner[runs] = %d, want the %d computes of both algorithms", got, computes)
	}
	if st.Runner["workers"] != 2 {
		t.Errorf("Runner[workers] = %d, want 2", st.Runner["workers"])
	}
	if _, ok := st.Runner["engines"]; ok {
		t.Error("Runner still reports a per-algorithm engine count")
	}
	if _, polluted := st.Algorithms["no-such-algo"]; polluted {
		t.Error("unregistered algorithm name admitted into the stats table")
	}
}

// TestServiceConcurrentIdenticalRequests exercises concurrent identical
// requests end-to-end through the HTTP layer, cache, and singleflight over
// a real engine (run under -race in CI). Every request must succeed with
// the identical deterministic payload, and each is answered by exactly one
// of: cache hit, in-flight share, or the single leader computation.
func TestServiceConcurrentIdenticalRequests(t *testing.T) {
	srv := httptest.NewServer(httpapi.New(mustService(t)))
	defer srv.Close()

	body := []byte(`{"graph": {"n": 9, "edges": [[0,1],[0,2],[1,3],[1,4],[2,5],[2,6],[3,7],[3,8]]}, "algo": "chang-ghaffari-improved", "seed": 5}`)
	const n = 16
	assigns := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/decompose", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var out struct {
				Assign []int `json:"assign"`
			}
			if errs[i] = json.Unmarshal(data, &out); errs[i] == nil {
				assigns[i] = fmt.Sprint(out.Assign)
			}
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if assigns[i] != assigns[0] {
			t.Fatalf("request %d returned a different assignment", i)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats strongdecomp.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	a := stats.Algorithms["chang-ghaffari-improved"]
	if got := stats.CacheHits + stats.DedupShared + a.Computes; got != n {
		t.Fatalf("hits(%d) + shared(%d) + computes(%d) = %d, want %d",
			stats.CacheHits, stats.DedupShared, a.Computes, got, n)
	}
	if stats.CacheHits+stats.DedupShared < n/2 {
		t.Fatalf("expected most requests deduplicated or cached, got hits=%d shared=%d computes=%d",
			stats.CacheHits, stats.DedupShared, a.Computes)
	}
}

// TestServiceFacadeTimeoutOption covers the timeout plumbed through the
// facade options into context cancellation.
func TestServiceFacadeTimeoutOption(t *testing.T) {
	svc := mustService(t,
		strongdecomp.WithServiceTimeout(1), // 1ns: every computation times out
		strongdecomp.WithServiceCacheSize(-1),
	)
	g := strongdecomp.CycleGraph(4096)
	_, err := svc.Decompose(t.Context(), &strongdecomp.ServiceRequest{Graph: g})
	if err == nil {
		t.Fatal("1ns-timeout service served a 4096-node decomposition")
	}
}

// TestServeV2JobsEndToEnd is the serve smoke test of the v2 API: a real
// engine-backed service behind the HTTP handler, a decomposition job
// submitted through POST /v2/jobs, polled to done, and its result fetched
// as an NDJSON cluster stream that reconstructs to a verifiable
// decomposition of the input graph.
func TestServeV2JobsEndToEnd(t *testing.T) {
	svc := mustService(t)
	defer svc.Close()
	srv := httptest.NewServer(httpapi.New(svc))
	defer srv.Close()

	g := strongdecomp.TorusGraph(8, 8)
	body := []byte(`{"kind": "decompose", "graph": ` + graphDocJSON(t, g) + `, "algo": "chang-ghaffari", "seed": 5}`)
	resp, err := http.Post(srv.URL+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for job.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", job.State)
		}
		if job.State == "failed" || job.State == "canceled" {
			t.Fatalf("job ended %q", job.State)
		}
		r, err := http.Get(srv.URL + "/v2/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r.StatusCode, data)
		}
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(srv.URL + "/v2/jobs/" + job.ID + "/result?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	stream, err := graphio.ReadClusterStream(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Header.N != g.N() || stream.Header.K < 1 {
		t.Fatalf("stream header %+v does not match the input graph", stream.Header)
	}
	assign, err := stream.Assign()
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the decomposition from the streamed clusters and verify
	// it with the library's own oracle.
	color := make([]int, stream.Header.K)
	for _, c := range stream.Clusters {
		if c.Color == nil {
			t.Fatalf("cluster %d streamed without a color", c.ID)
		}
		color[c.ID] = *c.Color
	}
	dec := &strongdecomp.Decomposition{
		Assign: assign, Color: color,
		K: stream.Header.K, Colors: stream.Header.Colors,
	}
	if err := strongdecomp.VerifyDecomposition(g, dec, -1, true); err != nil {
		t.Fatalf("streamed decomposition fails verification: %v", err)
	}
}

// graphDocJSON renders g as the inline JSON graph document.
func graphDocJSON(t *testing.T, g *strongdecomp.Graph) string {
	t.Helper()
	doc := struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}{N: g.N(), Edges: g.Edges()}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestServiceFacadeDataDir covers the persistence options end-to-end at
// facade level: a second service on the same data directory serves the
// first one's graph and result, and a broken directory fails NewService.
func TestServiceFacadeDataDir(t *testing.T) {
	dir := t.TempDir()
	g := strongdecomp.TorusGraph(4, 4)

	svc := mustService(t, strongdecomp.WithServiceDataDir(dir))
	hash := svc.PutGraph(g)
	first, err := svc.Decompose(t.Context(), &strongdecomp.ServiceRequest{Hash: hash, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2 := mustService(t, strongdecomp.WithServiceDataDir(dir))
	defer svc2.Close()
	if _, ok := svc2.GetGraph(hash); !ok {
		t.Fatal("restarted facade service lost the graph")
	}
	res, err := svc2.Decompose(t.Context(), &strongdecomp.ServiceRequest{Hash: hash, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("restarted facade service recomputed a persisted result")
	}
	for v := range first.Decomposition.Assign {
		if res.Decomposition.Assign[v] != first.Decomposition.Assign[v] {
			t.Fatalf("node %d: persisted assignment differs", v)
		}
	}
	if st := svc2.Stats(); st.Persist == nil || st.Persist.ResultDiskHits != 1 {
		t.Fatalf("persist stats: %+v", st.Persist)
	}

	if _, err := strongdecomp.NewService(strongdecomp.WithServiceDataDir("/dev/null/nope")); err == nil {
		t.Fatal("NewService accepted an impossible data dir")
	}
}
