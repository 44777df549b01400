package strongdecomp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// twoComponentGraph returns two disjoint cycles in one host graph.
func twoComponentGraph(t *testing.T) *Graph {
	t.Helper()
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
	}
	g, err := NewGraph(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// registerBlocking registers a construction whose Decompose parks until
// released (or its context dies), so tests can observe true concurrency.
func registerBlocking(t *testing.T, name string, started chan<- struct{}, release <-chan struct{}) {
	t.Helper()
	err := Register(name, func() Decomposer {
		return DecomposerFuncs{
			Meta: AlgorithmInfo{Name: name, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *Graph, _ RunOptions) (*Decomposition, error) {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
				}
				d := &Decomposition{Assign: make([]int, g.N()), Color: []int{0}, K: 1, Colors: 1}
				return d, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Unregister(name) })
}

// threeComponentGraph returns three disjoint paths in one host graph.
func threeComponentGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(9, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEngineDecomposeRunsComponentsInParallel proves that a multi-component
// graph is decomposed by more than one worker at once: both components must
// be inside the (blocking) construction simultaneously before either is
// released.
func TestEngineDecomposeRunsComponentsInParallel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlocking(t, "test-block-comp", started, release)

	e := NewEngine(WithWorkers(2))
	g := twoComponentGraph(t)

	done := make(chan error, 1)
	go func() {
		out, err := e.Run(context.Background(), g, Params{Algorithm: "test-block-comp"})
		if err == nil && out.Decomposition.K != 2 {
			err = fmt.Errorf("merged %d clusters, want 2", out.Decomposition.K)
		}
		done <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d component runs started concurrently; engine is serializing", i)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stats := e.Stats(); stats.MaxParallel < 2 {
		t.Fatalf("max parallelism %d, want >= 2", stats.MaxParallel)
	}
}

// TestEngineRunBoundsParallelismByWorkers runs a three-component graph on
// a two-worker engine: two components must be in flight simultaneously,
// the third must wait for a free worker, and the engine must never report
// more tasks in flight than it has workers.
func TestEngineRunBoundsParallelismByWorkers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlocking(t, "test-block-pool", started, release)

	e := NewEngine(WithWorkers(2))
	g := threeComponentGraph(t)

	done := make(chan error, 1)
	go func() {
		out, err := e.Run(context.Background(), g, Params{Algorithm: "test-block-pool"})
		if err == nil && out.Decomposition.K != 3 {
			err = fmt.Errorf("merged %d clusters, want 3", out.Decomposition.K)
		}
		done <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d component runs started concurrently; engine is serializing", i)
		}
	}
	select {
	case <-started:
		t.Fatal("third component started while both workers were busy")
	case <-time.After(50 * time.Millisecond):
	}
	// Drain the third start (once a worker frees up) and release everyone.
	go func() {
		for range started {
		}
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(started)
	if stats := e.Stats(); stats.MaxParallel != 2 {
		t.Fatalf("max parallelism %d, want exactly the 2 workers", stats.MaxParallel)
	}
}

// TestEngineRunHonorsCancellation cancels a multi-component run while its
// components are parked inside the construction on the worker pool and
// demands an ErrCanceled-matching failure.
func TestEngineRunHonorsCancellation(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	registerBlocking(t, "test-block-cancel", started, release)

	e := NewEngine(WithWorkers(2))
	g := threeComponentGraph(t)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, g, Params{Algorithm: "test-block-cancel"})
		done <- err
	}()
	<-started // at least one component is mid-flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled run returned %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return")
	}
}

// TestEngineDecomposeMergesComponentsCorrectly runs real constructions over
// a multi-component graph and validates the merged decomposition.
func TestEngineDecomposeMergesComponentsCorrectly(t *testing.T) {
	g := twoComponentGraph(t)
	e := NewEngine(WithWorkers(2))
	for _, name := range []string{"chang-ghaffari", "mpx", "sequential"} {
		out, err := e.Run(context.Background(), g, Params{Algorithm: name, Seed: 3, Meter: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyDecomposition(g, out.Decomposition, -1, true); err != nil {
			t.Fatalf("%s merged decomposition invalid: %v", name, err)
		}
		if out.Rounds == 0 {
			t.Fatalf("%s: no rounds after metered engine run", name)
		}
	}
}

// TestEngineSharedAcrossGoroutines exercises one Engine value from many
// goroutines simultaneously, across algorithms — the serving-process usage
// pattern; run with -race (CI does) to check the scratch pool and counters.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	e := NewEngine(WithWorkers(4))
	g := twoComponentGraph(t)
	algos := []string{"chang-ghaffari", "mpx"}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			p := Params{Algorithm: algos[seed%2], Seed: seed}
			out, err := e.Run(context.Background(), g, p)
			if err == nil {
				err = VerifyDecomposition(g, out.Decomposition, -1, true)
			}
			for _, h := range []*Graph{CycleGraph(32), GridGraph(5, 5)} {
				if err == nil {
					_, err = e.Run(context.Background(), h, p)
				}
			}
			if err != nil {
				errs <- err
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := e.Stats(); stats.Runs == 0 {
		t.Fatal("engine recorded no runs")
	}
}

// TestEngineUnknownAlgorithm pins the registry error for a Params naming
// no registered construction.
func TestEngineUnknownAlgorithm(t *testing.T) {
	e := NewEngine()
	for _, p := range []Params{
		{Algorithm: "nope", Kind: KindDecompose},
		{Algorithm: "nope", Kind: KindCarve, Eps: 0.5},
	} {
		if _, err := e.Run(context.Background(), PathGraph(3), p); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Fatalf("%s: want ErrUnknownAlgorithm, got %v", p.Kind, err)
		}
	}
}

// TestEngineCarveDelegates checks the carving path of the engine on a
// connected graph (direct dispatch) and a multi-component graph (parallel
// per-component carve + merge).
func TestEngineCarveDelegates(t *testing.T) {
	e := NewEngine(WithWorkers(2))
	g := CycleGraph(64)
	out, err := e.Run(context.Background(), g, Params{Kind: KindCarve, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCarving(g, out.Carving, 0.5, -1); err != nil {
		t.Fatal(err)
	}

	multi := twoComponentGraph(t)
	for _, name := range []string{"chang-ghaffari", "mpx"} {
		out, err := e.Run(context.Background(), multi, Params{Algorithm: name, Kind: KindCarve, Eps: 0.5, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyCarving(multi, out.Carving, 0.5, -1); err != nil {
			t.Fatalf("%s merged carving invalid: %v", name, err)
		}
	}
}
