package strongdecomp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// Engine executes decompositions at scale: it owns a worker pool and a
// sync.Pool of per-run scratch buffers and runs the connected components
// of a graph concurrently. It is algorithm-agnostic — every Run names its
// construction in Params — honors context cancellation and deadlines
// (returning errors matching ErrCanceled), and is safe for concurrent use
// from multiple goroutines: one Engine is meant to be shared by a whole
// serving process.
//
// Per-component parallelism is sound for network decomposition: distinct
// connected components are non-adjacent, so their decompositions are
// independent and their color sets may overlap. In the distributed model
// the components literally run simultaneously, which is why the attached
// Meter folds component costs with MergeParallel (max) rather than
// sequentially (sum).
type Engine struct {
	workers int

	scratch sync.Pool // *graph.Scratch

	runs        atomic.Int64
	merges      atomic.Int64
	inFlight    atomic.Int64
	maxParallel atomic.Int64
}

// The engine's scratch pool holds *graph.Scratch values: stamped visit
// marks, BFS queue, and subgraph remap buffers shared by the component
// split and the per-component InducedSubgraph calls. Buffers only grow, so
// a shrink-then-grow sequence of graph sizes never discards grown capacity.

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithWorkers sets the worker-pool size (default runtime.GOMAXPROCS(0)).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// NewEngine returns an engine with a worker pool.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	e.scratch.New = func() any { return graph.NewScratch() }
	return e
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// EngineStats is a point-in-time snapshot of the engine's execution
// counters — the observability surface consumed by the serving layer's
// /metrics endpoint, so external code never reaches into engine internals.
type EngineStats struct {
	// Workers is the configured worker-pool size.
	Workers int
	// Runs counts construction invocations (per-component runs, whole-graph
	// runs, and carvings) the engine has executed.
	Runs int64
	// ComponentMerges counts the cache-unfriendly merge passes: runs whose
	// host graph split into multiple components, requiring per-component
	// results to be stitched back together.
	ComponentMerges int64
	// InFlight is the number of unit tasks executing at snapshot time.
	InFlight int64
	// MaxParallel is the highest number of unit tasks observed in flight
	// simultaneously over the engine's lifetime.
	MaxParallel int64
}

// Stats returns a snapshot of the engine's execution counters. It is safe
// to call concurrently with running work; counters are read atomically
// (individually, not as one consistent cut).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Workers:         e.workers,
		Runs:            e.runs.Load(),
		ComponentMerges: e.merges.Load(),
		InFlight:        e.inFlight.Load(),
		MaxParallel:     e.maxParallel.Load(),
	}
}

// Counters flattens the snapshot into the name → value form expvar-style
// metrics endpoints publish.
func (s EngineStats) Counters() map[string]int64 {
	return map[string]int64{
		"workers":          int64(s.Workers),
		"runs":             s.Runs,
		"component_merges": s.ComponentMerges,
		"in_flight":        s.InFlight,
		"max_parallel":     s.MaxParallel,
	}
}

// stageClock records the engine's phase boundaries (component split,
// carving rounds, merge) for Outcome.Stages. It exists only when the
// run's context carries an observability collector: newStageClock
// returns nil otherwise and every method is nil-safe, so the cost of an
// un-instrumented run is a single context lookup — no clock reads, no
// allocation.
type stageClock struct {
	last   time.Time
	stages []registry.StageTiming
}

// newStageClock starts a clock iff ctx is instrumented (obs.Enabled).
func newStageClock(ctx context.Context) *stageClock {
	if !obs.Enabled(ctx) {
		return nil
	}
	return &stageClock{last: time.Now()}
}

// mark closes the current phase under name and opens the next one.
func (c *stageClock) mark(name string) {
	if c == nil {
		return
	}
	now := time.Now()
	c.stages = append(c.stages, registry.StageTiming{Name: name, Elapsed: now.Sub(c.last)})
	c.last = now
}

// take returns the recorded phases (nil for a nil clock).
func (c *stageClock) take() []registry.StageTiming {
	if c == nil {
		return nil
	}
	return c.stages
}

// Run executes one canonical Params on the engine — its only execution
// entry. The Params is normalized (an empty Algorithm means
// DefaultAlgorithm) and validated against g, multi-component graphs run
// their components concurrently on the worker pool with seed p.Seed + i
// for component i (so results are deterministic regardless of
// scheduling), and metering is opt-in via p.Meter: the parallel (max)
// fold of the per-component costs is reported on Outcome.Rounds.
func (e *Engine) Run(ctx context.Context, g *Graph, p Params) (*Outcome, error) {
	p = p.Normalized()
	if err := registry.ValidateFor(g, p); err != nil {
		return nil, err
	}
	d, err := Lookup(p.Algorithm)
	if err != nil {
		return nil, err
	}
	var meter *rounds.Meter
	if p.Meter {
		meter = rounds.NewMeter()
	}
	out := &Outcome{Params: p}
	// The stage clock exists only on instrumented contexts (see
	// newStageClock), so Outcome.Stages costs nothing when nobody asked.
	sc := newStageClock(ctx)
	switch p.Kind {
	case KindCarve:
		c, err := e.carve(ctx, d, g, p, meter, sc)
		if err != nil {
			return nil, err
		}
		out.Carving = c
	case KindDecompose:
		dec, err := e.decomposeGraph(ctx, d, g, p, meter, sc)
		if err != nil {
			return nil, err
		}
		out.Decomposition = dec
	}
	if meter != nil {
		out.Rounds = meter.Rounds()
	}
	out.Stages = sc.take()
	return out, nil
}

// carve is the carving core: like decomposeGraph, a multi-component graph
// (with no Nodes restriction) is carved per component concurrently and
// merged — each component removes at most an eps fraction of its own
// nodes, so the merged carving meets the bound too. dst (which may be
// nil) receives the parallel (max) fold of the per-component costs; sc
// (which may be nil) receives the phase boundaries.
func (e *Engine) carve(ctx context.Context, d Decomposer, g *Graph, p Params, dst *rounds.Meter, sc *stageClock) (*Carving, error) {
	var comps [][]int
	if p.Nodes == nil {
		comps = e.components(g)
	}
	sc.mark("split")
	if len(comps) <= 1 {
		e.runs.Add(1)
		// Single component (or explicit node subset): component-level
		// parallelism has nothing to fan out.
		c, err := d.Carve(ctx, g, p.Eps, &RunOptions{Seed: p.Seed, Meter: dst, Nodes: p.Nodes})
		sc.mark("carve-rounds")
		return c, err
	}
	e.merges.Add(1)

	pieces := make([]cluster.Piece, len(comps))
	meters := make([]*rounds.Meter, len(comps))
	err := e.runPool(ctx, len(comps), func(ctx context.Context, i int) error {
		e.runs.Add(1)
		sub, nodeOf := e.inducedSubgraph(g, comps[i])
		ro := &RunOptions{Seed: p.Seed + int64(i), Meter: rounds.NewMeter()}
		c, err := d.Carve(ctx, sub, p.Eps, ro)
		if err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		pieces[i] = cluster.Piece{C: c, NodeOf: nodeOf}
		meters[i] = ro.Meter
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc.mark("carve-rounds")
	mergeParallel(dst, meters)
	c, err := cluster.MergeCarvings(g.N(), pieces)
	sc.mark("merge")
	return c, err
}

// decomposeGraph is the decomposition core: it splits g into connected
// components and runs them concurrently on the worker pool. dst (which
// may be nil) receives the parallel (max) fold of the per-component
// costs; sc (which may be nil) receives the phase boundaries.
func (e *Engine) decomposeGraph(ctx context.Context, d Decomposer, g *Graph, p Params, dst *rounds.Meter, sc *stageClock) (*Decomposition, error) {
	comps := e.components(g)
	sc.mark("split")
	if len(comps) <= 1 {
		e.runs.Add(1)
		dec, err := d.Decompose(ctx, g, &RunOptions{Seed: p.Seed, Meter: dst})
		sc.mark("carve-rounds")
		return dec, err
	}
	e.merges.Add(1)

	pieces := make([]cluster.Piece, len(comps))
	meters := make([]*rounds.Meter, len(comps))
	err := e.runPool(ctx, len(comps), func(ctx context.Context, i int) error {
		e.runs.Add(1)
		sub, nodeOf := e.inducedSubgraph(g, comps[i])
		ro := &RunOptions{Seed: p.Seed + int64(i), Meter: rounds.NewMeter()}
		dec, err := d.Decompose(ctx, sub, ro)
		if err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		pieces[i] = cluster.Piece{D: dec, NodeOf: nodeOf}
		meters[i] = ro.Meter
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc.mark("carve-rounds")
	mergeParallel(dst, meters)
	dec, err := cluster.MergeDecompositions(g.N(), pieces)
	sc.mark("merge")
	return dec, err
}

// mergeParallel folds the per-component meters into dst (which may be
// nil) as one parallel phase: the max across components. dst is the
// run's own fresh meter, so folding straight into it equals the phase.
func mergeParallel(dst *rounds.Meter, meters []*rounds.Meter) {
	for _, m := range meters {
		dst.MergeParallel(m)
	}
}

// runPool executes fn(ctx, 0..n-1) on the engine's worker pool. The first
// error cancels the remaining tasks and is returned; a canceled parent
// context yields an error matching ErrCanceled.
func (e *Engine) runPool(parent context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return registry.CtxErr(parent)
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	workers := e.workers
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cur := e.inFlight.Add(1)
				for {
					m := e.maxParallel.Load()
					if cur <= m || e.maxParallel.CompareAndSwap(m, cur) {
						break
					}
				}
				err := fn(ctx, i)
				e.inFlight.Add(-1)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return registry.CtxErr(parent)
}

// components returns the connected components of g (members in BFS
// discovery order) using pooled scratch buffers, so steady-state engine
// traffic does not reallocate BFS state.
func (e *Engine) components(g *Graph) [][]int {
	s := e.scratch.Get().(*graph.Scratch)
	defer e.scratch.Put(s)
	return s.Components(g, nil)
}

// inducedSubgraph is graph.InducedSubgraph through the engine's scratch
// pool: the remap and membership buffers are recycled across runs and
// workers instead of being reallocated per component.
func (e *Engine) inducedSubgraph(g *Graph, nodes []int) (*Graph, []int) {
	s := e.scratch.Get().(*graph.Scratch)
	defer e.scratch.Put(s)
	return s.InducedSubgraph(g, nodes)
}
