package shard

// End-to-end applications test: a 2-shard cluster where an app request
// enters through the non-owner coordinator. The proxy must forward
// POST /v2/apps/{app} to the graph's owner exactly like a decompose
// request (one hop, one shared trace ID, app-run span on the owner), the
// owner must compute the decomposition exactly once across different
// apps, and the repeat must be an app-cache hit on the owner.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/service"
	"strongdecomp/internal/service/httpapi"
)

func TestClusterAppForwardedToOwner(t *testing.T) {
	algo, count := registerShardStub(t)

	const n = 2
	shards := make([]*testShard, n)
	sinks := make([]*spanSink, n)
	members := make([]Member, n)
	for i := range shards {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		members[i] = Member{ID: fmt.Sprintf("s%d", i), URL: srv.URL}
		shards[i] = &testShard{member: members[i], srv: srv, swap: sw}
		sinks[i] = &spanSink{}
	}
	for i := range shards {
		sh := shards[i]
		svc, err := service.New(service.Config{DefaultAlgorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		c, err := NewCluster(Config{SelfID: sh.member.ID, Members: members, ProbeInterval: -1, Replicas: 0})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		sh.svc, sh.cluster = svc, c
		col := obs.NewCollector(slog.New(slog.NewJSONHandler(sinks[i], nil)))
		local := httpapi.New(svc,
			httpapi.WithReadiness(c.Ready),
			httpapi.WithObs(col),
			httpapi.WithServedBy(sh.member.ID),
		)
		sh.swap.set(col.Middleware(c.Handler(svc, local)))
	}

	g := graph.Grid(4, 4)
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, graphio.FormatJSON); err != nil {
		t.Fatal(err)
	}
	hash := graphio.Hash(g)
	owner, ok := shards[0].cluster.ring.OwnerAmong(hash, shards[0].cluster.alive)
	if !ok {
		t.Fatal("no owner")
	}
	ownerIdx := shardIndex(t, shards, owner.ID)
	coordIdx := (ownerIdx + 1) % n

	resp, err := http.Post(shards[coordIdx].srv.URL+"/v1/graphs?format=json", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	// First app through the coordinator: forwarded, computed on the owner.
	status, body := postJSON(t, shards[coordIdx].srv.URL+"/v2/apps/diameter", map[string]any{"hash": hash, "seed": 1})
	if status != http.StatusOK {
		t.Fatalf("app status %d: %s", status, body)
	}
	var out struct {
		App                 string `json:"app"`
		Diameter            *int   `json:"diameter"`
		ScheduleCost        int    `json:"schedule_cost"`
		Cached              bool   `json:"cached"`
		DecompositionCached bool   `json:"decomposition_cached"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.App != "diameter" || out.Diameter == nil || *out.Diameter != 6 {
		t.Fatalf("grid-4x4 app response: %s", body)
	}
	if out.Cached {
		t.Fatalf("first app request flagged cached: %s", body)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("decomposition computed %d times, want 1", got)
	}

	// The request must have been served by the owner, one hop away, under
	// a single trace ID with app spans on the owner side only. The
	// coordinator logs its proxy span (and each shard its route span) only
	// after relaying the response, so the client can read the body before
	// they land: wait for the app request's proxy span, and for its route
	// span on the owner.
	var shared string
	waitFor(t, "the coordinator's app proxy span and the owner's route span", func() bool {
		for _, r := range sinks[coordIdx].spans(t) {
			if r.Stage == "proxy" && r.Path == "/v2/apps/diameter" {
				shared = r.TraceID
			}
		}
		for _, r := range sinks[ownerIdx].spans(t) {
			if shared != "" && r.TraceID == shared && r.Stage == "route" {
				return true
			}
		}
		return false
	})
	ownerStages := make(map[string]int)
	for _, r := range sinks[ownerIdx].spans(t) {
		if r.TraceID != shared {
			continue
		}
		if r.Hop != 1 {
			t.Errorf("owner span %+v: want hop 1", r)
		}
		ownerStages[r.Stage]++
	}
	for _, want := range []string{"app-resolve", "app-run", "route"} {
		if ownerStages[want] == 0 {
			t.Errorf("owner missing %q span in trace %s: %v", want, shared, ownerStages)
		}
	}
	for _, r := range sinks[coordIdx].spans(t) {
		if r.TraceID == shared && r.Hop != 0 {
			t.Errorf("coordinator span %+v: want hop 0", r)
		}
	}

	// A second app reuses the owner's cached decomposition; the repeat of
	// the first is an app-cache hit. Neither recomputes.
	status, body = postJSON(t, shards[coordIdx].srv.URL+"/v2/apps/mis", map[string]any{"hash": hash, "seed": 1})
	if status != http.StatusOK {
		t.Fatalf("mis status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.DecompositionCached {
		t.Fatalf("mis on the owner did not reuse the decomposition: %s", body)
	}
	status, body = postJSON(t, shards[coordIdx].srv.URL+"/v2/apps/diameter", map[string]any{"hash": hash, "seed": 1})
	if status != http.StatusOK {
		t.Fatalf("repeat status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatalf("repeat app not served from the owner's app cache: %s", body)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("decomposition computed %d times across three app requests, want 1", got)
	}

	// The response names the serving shard.
	req, err := http.NewRequest(http.MethodPost, shards[coordIdx].srv.URL+"/v2/apps/diameter",
		bytes.NewReader([]byte(fmt.Sprintf(`{"hash":%q,"seed":1}`, hash))))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(httpapi.ServedByHeader); got != owner.ID {
		t.Errorf("%s = %q, want owner %q", httpapi.ServedByHeader, got, owner.ID)
	}
}
