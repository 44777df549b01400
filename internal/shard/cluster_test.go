package shard

// In-process cluster tests: N shards, each a real service.Service behind
// a real proxy handler on a real httptest listener, wired exactly like
// cmd/serve wires them (late-bound hooks, proxy over local API handler).
// Liveness probing is disabled (ProbeInterval < 0) so tests control the
// failure model explicitly with markDown — no timing-dependent revival.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/service"
	"strongdecomp/internal/service/httpapi"
)

// registerShardStub registers a deterministic seed-dependent construction
// and returns its name plus a counter of real computations.
func registerShardStub(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("shard-stub-%s", t.Name())
	count := &atomic.Int64{}
	err := registry.Register(name, func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{Name: name, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, opts registry.RunOptions) (*cluster.Decomposition, error) {
				count.Add(1)
				assign := make([]int, g.N())
				for v := range assign {
					assign[v] = (v + int(opts.Seed)) % 2
				}
				return &cluster.Decomposition{Assign: assign, Color: []int{0, 1}, K: 2, Colors: 2}, nil
			},
			CarveFunc: func(ctx context.Context, g *graph.Graph, eps float64, opts registry.RunOptions) (*cluster.Carving, error) {
				count.Add(1)
				assign := make([]int, g.N())
				for v := range assign {
					assign[v] = v % 2
				}
				return &cluster.Carving{Assign: assign, K: 2, Centers: []int{0, 1}}, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(name) })
	return name, count
}

// swapHandler lets a listener start before the handler behind it exists —
// the member URLs must be known before the clusters can be built.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testShard is one in-process cluster node.
type testShard struct {
	member  Member
	svc     *service.Service
	cluster *Cluster
	srv     *httptest.Server
	swap    *swapHandler
}

// newTestCluster builds an n-shard in-process cluster running algo.
func newTestCluster(t *testing.T, n int, algo string) []*testShard {
	t.Helper()
	shards := make([]*testShard, n)
	members := make([]Member, n)
	for i := range shards {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		members[i] = Member{ID: fmt.Sprintf("s%d", i), URL: srv.URL}
		shards[i] = &testShard{member: members[i], srv: srv, swap: sw}
	}
	for i := range shards {
		sh := shards[i]
		// The hooks close over sh so they can late-bind: the service needs
		// them at construction, before the cluster exists (the same
		// indirection cmd/serve uses).
		svc, err := service.New(service.Config{
			DefaultAlgorithm: algo,
			Cluster: service.ClusterHooks{
				PeerLookup: func(ctx context.Context, h, p string, nn int) (*service.Result, bool) {
					if c := sh.cluster; c != nil {
						return c.PeerLookup(ctx, h, p, nn)
					}
					return nil, false
				},
				OnResultComputed: func(h, p string, r *service.Result) {
					if c := sh.cluster; c != nil {
						c.ReplicateResult(h, p, r)
					}
				},
				OnGraphStored: func(h string, g *graph.Graph) {
					if c := sh.cluster; c != nil {
						c.ReplicateGraph(h, g)
					}
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		// Replicas is explicit: Config honors 0 as "no replication", and
		// these tests exercise the replication paths.
		c, err := NewCluster(Config{SelfID: sh.member.ID, Members: members, ProbeInterval: -1, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		sh.svc, sh.cluster = svc, c
		sh.swap.set(c.Handler(svc, httpapi.New(svc,
			httpapi.WithReadiness(c.Ready),
			httpapi.WithHealthDetail(c.HealthDetail),
			httpapi.WithClusterStats(c.Stats),
		)))
	}
	return shards
}

// shardIndex resolves a member ID back to its slice index.
func shardIndex(t *testing.T, shards []*testShard, id string) int {
	t.Helper()
	for i, sh := range shards {
		if sh.member.ID == id {
			return i
		}
	}
	t.Fatalf("no shard %q", id)
	return -1
}

// postJSON posts body to url and returns (status, response bytes).
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// computeWire is the subset of the compute response the tests assert on.
type computeWire struct {
	GraphHash string `json:"graph_hash"`
	K         int    `json:"k"`
	Assign    []int  `json:"assign"`
	Cached    bool   `json:"cached"`
	Peer      bool   `json:"peer"`
}

// decodeWire unmarshals into out, failing the test on garbage.
func decodeWire(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
}

// waitFor polls cond until true or the deadline, then fails.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterProxyRoutesToOwner: a graph uploaded through a non-owner
// node lands on the ring owner, compute requests through any node answer
// correctly, and repeats are owner cache hits — the whole cluster
// behaves as one service.
func TestClusterProxyRoutesToOwner(t *testing.T) {
	algo, count := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Cycle(16)
	hash := graphio.Hash(g)

	owner := shardIndex(t, shards, shards[0].cluster.Ring().Owner(hash).ID)
	coord := (owner + 1) % 3

	status, body := postJSON(t, shards[coord].srv.URL+"/v1/graphs", graphio.ToDocument(g))
	if status != http.StatusOK {
		t.Fatalf("upload via coordinator: status %d: %s", status, body)
	}
	var up struct {
		Hash string `json:"hash"`
	}
	decodeWire(t, body, &up)
	if up.Hash != hash {
		t.Fatalf("upload hash %s, want %s", up.Hash, hash)
	}
	if _, ok := shards[owner].svc.GetGraph(hash); !ok {
		t.Fatal("graph did not land on its ring owner")
	}

	req := map[string]any{"hash": hash, "algo": algo, "seed": 3}
	status, body = postJSON(t, shards[coord].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("decompose via coordinator: status %d: %s", status, body)
	}
	var first computeWire
	decodeWire(t, body, &first)
	if first.GraphHash != hash || len(first.Assign) != g.N() || first.Cached {
		t.Fatalf("first compute: %+v", first)
	}

	// Repeat through the third node: same owner, so a cache hit.
	third := 3 - owner - coord
	status, body = postJSON(t, shards[third].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("repeat via third node: status %d: %s", status, body)
	}
	var second computeWire
	decodeWire(t, body, &second)
	if !second.Cached {
		t.Fatal("repeat through another node missed the owner's cache")
	}
	for v := range first.Assign {
		if first.Assign[v] != second.Assign[v] {
			t.Fatalf("node %d: assign diverged across coordinators", v)
		}
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times, want 1", got)
	}
	if st := shards[coord].cluster.Stats(); st["proxied_total"] == 0 {
		t.Fatal("coordinator proxied nothing; requests were served locally")
	}
}

// TestClusterKillOwnerServesReplicatedResult is the resilience
// acceptance test: upload + decompose through a coordinator, kill the
// owning shard, and the result — replicated to the ring successor at
// compute time — still serves through the surviving nodes, without
// recomputation. New requests for the same graph also keep working.
func TestClusterKillOwnerServesReplicatedResult(t *testing.T) {
	algo, count := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.ClusterGraph(3, 8, 0.6, 7)
	hash := graphio.Hash(g)

	ring := shards[0].cluster.Ring()
	owner := shardIndex(t, shards, ring.Owner(hash).ID)
	succ := shardIndex(t, shards, ring.Successors(hash, 2, nil)[1].ID)
	coord := 3 - owner - succ // the node that is neither owner nor replica

	if status, body := postJSON(t, shards[coord].srv.URL+"/v1/graphs", graphio.ToDocument(g)); status != http.StatusOK {
		t.Fatalf("upload: status %d: %s", status, body)
	}
	req := map[string]any{"hash": hash, "algo": algo, "seed": 3}
	status, body := postJSON(t, shards[coord].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("decompose: status %d: %s", status, body)
	}
	var first computeWire
	decodeWire(t, body, &first)

	// Replication is asynchronous; wait for the successor to hold both the
	// graph snapshot and the result record before pulling the plug.
	paramsKey := registry.Params{Algorithm: algo, Kind: registry.KindDecompose, Seed: 3, Meter: true}.Key()
	waitFor(t, "replica graph on successor", func() bool {
		_, ok := shards[succ].svc.GetGraph(hash)
		return ok
	})
	waitFor(t, "replica result on successor", func() bool {
		_, ok := shards[succ].svc.CachedResult(hash, paramsKey)
		return ok
	})

	// Kill the owner: listener down, and the survivors' liveness marks it
	// dead (the probe loop is off; a real deployment gets here via probes
	// or the first failed forward).
	shards[owner].srv.Close()
	for i, sh := range shards {
		if i != owner {
			sh.cluster.markDown(shards[owner].member.ID)
		}
	}

	status, body = postJSON(t, shards[coord].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("decompose after owner death: status %d: %s", status, body)
	}
	var after computeWire
	decodeWire(t, body, &after)
	if !after.Cached {
		t.Fatal("survivor recomputed a result that was replicated to it")
	}
	for v := range first.Assign {
		if first.Assign[v] != after.Assign[v] {
			t.Fatalf("node %d: post-failure assign %d != original %d", v, after.Assign[v], first.Assign[v])
		}
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times across the failure, want 1", got)
	}

	// Fresh work on the same graph keeps flowing: a new seed computes on
	// the inheriting survivor from its replicated snapshot.
	fresh := map[string]any{"hash": hash, "algo": algo, "seed": 4}
	status, body = postJSON(t, shards[coord].srv.URL+"/v1/decompose", fresh)
	if status != http.StatusOK {
		t.Fatalf("fresh seed after owner death: status %d: %s", status, body)
	}
	var freshRes computeWire
	decodeWire(t, body, &freshRes)
	if freshRes.Cached || len(freshRes.Assign) != g.N() {
		t.Fatalf("fresh seed after owner death: %+v", freshRes)
	}
}

// TestClusterPeerLookup: the peer tier finds a result cached on another
// node — via the owner directly, and via fan-out once the owner is dead.
func TestClusterPeerLookup(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Torus(4, 4)
	hash := graphio.Hash(g)

	ring := shards[0].cluster.Ring()
	owner := shardIndex(t, shards, ring.Owner(hash).ID)
	succ := shardIndex(t, shards, ring.Successors(hash, 2, nil)[1].ID)
	other := 3 - owner - succ

	shards[owner].svc.PutGraph(g)
	res, err := shards[owner].svc.Decompose(context.Background(), &service.Request{Hash: hash, Algo: algo, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	paramsKey := registry.Params{Algorithm: algo, Kind: registry.KindDecompose, Seed: 5, Meter: true}.Key()
	waitFor(t, "replica result on successor", func() bool {
		_, ok := shards[succ].svc.CachedResult(hash, paramsKey)
		return ok
	})

	got, ok := shards[other].cluster.PeerLookup(context.Background(), hash, paramsKey, g.N())
	if !ok {
		t.Fatal("peer lookup missed a result the live owner holds")
	}
	for v := range res.Decomposition.Assign {
		if got.Decomposition.Assign[v] != res.Decomposition.Assign[v] {
			t.Fatalf("node %d: peer copy diverges", v)
		}
	}

	// Owner dead: the fan-out leg finds the replica on the successor.
	shards[other].cluster.markDown(shards[owner].member.ID)
	if _, ok := shards[other].cluster.PeerLookup(context.Background(), hash, paramsKey, g.N()); !ok {
		t.Fatal("fan-out missed the successor's replica after owner death")
	}
	if hits := shards[other].cluster.Stats()["peer_cache_hits_total"]; hits != 2 {
		t.Fatalf("peer_cache_hits_total = %d, want 2", hits)
	}
}

// TestClusterJobsAcrossShards: a job submitted through one node is
// visible through every node — by the learned owner route on the
// submitting coordinator and by fan-out everywhere else.
func TestClusterJobsAcrossShards(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Grid(5, 5)
	hash := graphio.Hash(g)

	owner := shardIndex(t, shards, shards[0].cluster.Ring().Owner(hash).ID)
	coord := (owner + 1) % 3
	third := 3 - owner - coord

	if status, body := postJSON(t, shards[coord].srv.URL+"/v1/graphs", graphio.ToDocument(g)); status != http.StatusOK {
		t.Fatalf("upload: status %d: %s", status, body)
	}
	status, body := postJSON(t, shards[coord].srv.URL+"/v2/jobs",
		map[string]any{"hash": hash, "algo": algo, "seed": 9})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	decodeWire(t, body, &job)
	if job.ID == "" {
		t.Fatalf("submit answered without a job ID: %s", body)
	}
	// submitJob records the owner after relaying the response, so the
	// client can see the job ID first.
	if coord != owner {
		waitFor(t, "coordinator to learn the proxied job's owner", func() bool {
			_, ok := shards[coord].cluster.jobOwner(job.ID)
			return ok
		})
	}

	// Poll from the third node (no learned route there: fan-out).
	waitFor(t, "job done via third node", func() bool {
		resp, err := http.Get(shards[third].srv.URL + "/v2/jobs/" + job.ID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var j struct {
			State string `json:"state"`
		}
		return json.Unmarshal(data, &j) == nil && j.State == "done"
	})

	resp, err := http.Get(shards[third].srv.URL + "/v2/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result via third node: status %d: %s", resp.StatusCode, data)
	}
	var res computeWire
	decodeWire(t, data, &res)
	if res.GraphHash != hash || len(res.Assign) != g.N() {
		t.Fatalf("job result: %+v", res)
	}

	// Unknown IDs still 404 through the fan-out path.
	resp2, err := http.Get(shards[third].srv.URL + "/v2/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp2.StatusCode)
	}
}

// TestClusterBatchFanout: a batch posted to one node splits across the
// owning shards and reassembles in request order.
func TestClusterBatchFanout(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)

	// Enough distinct graphs that at least two different shards own some.
	var graphs []*graph.Graph
	for n := 10; n < 18; n++ {
		graphs = append(graphs, graph.Cycle(n))
	}
	owners := make(map[string]bool)
	items := make([]map[string]any, 0, len(graphs))
	for _, g := range graphs {
		owners[shards[0].cluster.Ring().Owner(graphio.Hash(g)).ID] = true
		items = append(items, map[string]any{"graph": graphio.ToDocument(g), "algo": algo, "seed": 1})
	}
	if len(owners) < 2 {
		t.Fatal("test graphs all landed on one shard; balance assumption broken")
	}
	// One malformed item: errors must stay slot-local.
	items = append(items, map[string]any{"hash": "deadbeef", "algo": algo})

	status, body := postJSON(t, shards[0].srv.URL+"/v1/decompose/batch", map[string]any{"requests": items})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var out struct {
		Results []struct {
			Result *computeWire `json:"result"`
			Error  string       `json:"error"`
		} `json:"results"`
	}
	decodeWire(t, body, &out)
	if len(out.Results) != len(items) {
		t.Fatalf("batch answered %d of %d items", len(out.Results), len(items))
	}
	for i, g := range graphs {
		slot := out.Results[i]
		if slot.Result == nil {
			t.Fatalf("item %d failed: %s", i, slot.Error)
		}
		if slot.Result.GraphHash != graphio.Hash(g) {
			t.Fatalf("item %d answered for graph %s, want %s", i, slot.Result.GraphHash, graphio.Hash(g))
		}
		if len(slot.Result.Assign) != g.N() {
			t.Fatalf("item %d: assign length %d, want %d", i, len(slot.Result.Assign), g.N())
		}
	}
	last := out.Results[len(items)-1]
	if last.Result != nil || last.Error == "" {
		t.Fatalf("malformed trailing item did not error: %+v", last)
	}
}

// TestClusterReadyQuorum pins the readiness contract: ready with a
// majority live, unready while draining or partitioned into a minority.
func TestClusterReadyQuorum(t *testing.T) {
	members := testMembers(3)
	c, err := NewCluster(Config{SelfID: members[0].ID, Members: members, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ready(); err != nil {
		t.Fatalf("fresh cluster unready: %v", err)
	}
	c.markDown(members[1].ID)
	if err := c.Ready(); err != nil {
		t.Fatalf("2 of 3 live is a majority, got: %v", err)
	}
	c.markDown(members[2].ID)
	if err := c.Ready(); err == nil {
		t.Fatal("1 of 3 live reported ready")
	}
	c.markUp(members[1].ID)
	c.markUp(members[2].ID)
	c.SetDraining(true)
	if err := c.Ready(); err == nil {
		t.Fatal("draining shard reported ready")
	}
	c.SetDraining(false)
	if err := c.Ready(); err != nil {
		t.Fatalf("undrained cluster unready: %v", err)
	}
}

// TestNewClusterRejectsForeignSelf: the self ID must be a ring member.
func TestNewClusterRejectsForeignSelf(t *testing.T) {
	if _, err := NewCluster(Config{SelfID: "ghost", Members: testMembers(3), ProbeInterval: -1}); err == nil {
		t.Fatal("self outside the membership accepted")
	}
}

// doReq performs an arbitrary request and returns (status, body).
func doReq(t *testing.T, req *http.Request) (int, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestClusterInternalAuth pins the peer-authentication contract: the
// /internal/ surface and the internal-header routing bypass are only
// reachable with a shard header naming a ring member — a client forging
// the header (or omitting it on /internal/) is rejected, so it cannot
// inject cache records, push graphs, or pin its own request placement.
func TestClusterInternalAuth(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	base := shards[0].srv.URL
	record := []byte(`{"schema":"strongdecomp/result/v1"}`)

	// /internal/ without the shard header: rejected before any admission.
	req, _ := http.NewRequest(http.MethodPut, base+"/internal/cache/deadbeef/00", bytes.NewReader(record))
	if status, body := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("headerless internal PUT: status %d (%s), want 403", status, body)
	}

	// /internal/ with a header naming a shard outside the ring: rejected.
	req, _ = http.NewRequest(http.MethodPut, base+"/internal/cache/deadbeef/00", bytes.NewReader(record))
	req.Header.Set(internalHeader, "mallory")
	if status, body := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("forged internal PUT: status %d (%s), want 403", status, body)
	}
	req, _ = http.NewRequest(http.MethodGet, base+"/internal/ring", nil)
	req.Header.Set(internalHeader, "mallory")
	if status, _ := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("forged ring introspection: status %d, want 403", status)
	}

	// A forged header on a public route must not bypass routing.
	g := graph.Cycle(9)
	body, _ := json.Marshal(map[string]any{"graph": graphio.ToDocument(g), "algo": algo})
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/decompose", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(internalHeader, "mallory")
	if status, out := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("forged routing bypass: status %d (%s), want 403", status, out)
	}

	// A genuine member ID still passes (membership-only mode).
	req, _ = http.NewRequest(http.MethodGet, base+"/internal/ring", nil)
	req.Header.Set(internalHeader, shards[1].member.ID)
	if status, out := doReq(t, req); status != http.StatusOK {
		t.Fatalf("member-authenticated ring introspection: status %d (%s), want 200", status, out)
	}
}

// TestClusterSharedSecret: with Config.Secret set, membership alone is
// not enough — internal requests must also present the token.
func TestClusterSharedSecret(t *testing.T) {
	algo, _ := registerShardStub(t)
	members := testMembers(2)
	svc, err := service.New(service.Config{DefaultAlgorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	c, err := NewCluster(Config{SelfID: members[0].ID, Members: members, ProbeInterval: -1, Secret: "sesame"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler(svc, httpapi.New(svc)))
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/internal/ring", nil)
	req.Header.Set(internalHeader, members[1].ID)
	if status, _ := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("member without secret: status %d, want 403", status)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/internal/ring", nil)
	req.Header.Set(internalHeader, members[1].ID)
	req.Header.Set(secretHeader, "wrong")
	if status, _ := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("member with wrong secret: status %d, want 403", status)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/internal/ring", nil)
	c.setPeerAuth(req.Header)
	if status, out := doReq(t, req); status != http.StatusOK {
		t.Fatalf("member with secret: status %d (%s), want 200", status, out)
	}
}

// TestClusterBatchCap: the coordinator enforces the API layer's batch
// cap before fan-out, matching the single-node 400 instead of splitting
// an oversized batch into passing sub-batches.
func TestClusterBatchCap(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	items := make([]map[string]any, httpapi.MaxBatchRequests+1)
	for i := range items {
		items[i] = map[string]any{"hash": "deadbeef", "algo": algo}
	}
	status, body := postJSON(t, shards[0].srv.URL+"/v1/decompose/batch", map[string]any{"requests": items})
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch via coordinator: status %d (%.120s), want 400", status, body)
	}
}

// TestClusterReplicasZero: an explicit Replicas of 0 means no
// replication — no successor is ever targeted.
func TestClusterReplicasZero(t *testing.T) {
	members := testMembers(3)
	c, err := NewCluster(Config{SelfID: members[0].ID, Members: members, ProbeInterval: -1, Replicas: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.replicaTargets("0000000000000000000000000000000000000000000000000000000000000000"); len(got) != 0 {
		t.Fatalf("Replicas=0 still targets %v", got)
	}
}
