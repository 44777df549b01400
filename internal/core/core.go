// Package core implements the paper's contributions:
//
//   - Theorem 2.1: a message-efficient deterministic transformation turning
//     any weak-diameter ball carving algorithm A into a strong-diameter ball
//     carving algorithm B (StrongCarve);
//   - Theorem 2.2: its instantiation with the deterministic weak carver of
//     internal/rg (CarveRG);
//   - Theorem 2.3: the strong-diameter network decomposition obtained by
//     log n repetitions of ball carving with ε = 1/2 (DecomposeContext);
//   - Lemma 3.1: the balanced-sparse-cut-or-large-small-diameter-component
//     subroutine (CutOrComponent);
//   - Theorem 3.2: the diameter-improvement transformation
//     (ImproveDiameterContext);
//   - Theorems 3.3/3.4: their instantiations (CarveImproved,
//     DecomposeImprovedContext) achieving strong diameter O(log² n / ε).
//
// All algorithms are deterministic, operate on the subgraph induced by a
// node subset of a host graph, and charge their distributed cost to an
// optional rounds.Meter using the cost model described in DESIGN.md.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// WeakCarver is the black-box algorithm A of Theorem 2.1: it removes at most
// an eps fraction of nodes and clusters the remainder into non-adjacent
// clusters, each with a bounded-depth Steiner tree in the host graph.
type WeakCarver func(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error)

// CtxStrongCarver is the contract of algorithm B: it removes at most an
// eps fraction of nodes so that every remaining connected component
// (cluster) has bounded strong diameter. Cancellation is observed between
// carving iterations.
type CtxStrongCarver func(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error)

// collector accumulates emitted clusters over the iterative process.
type collector struct {
	assign  []int
	centers []int
	k       int
}

func newCollector(n int) *collector {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	return &collector{assign: assign}
}

func (co *collector) emit(members []int, center int) {
	for _, v := range members {
		co.assign[v] = co.k
	}
	co.centers = append(co.centers, center)
	co.k++
}

func (co *collector) carving() *cluster.Carving {
	return &cluster.Carving{Assign: co.assign, K: co.k, Centers: co.centers}
}

// StrongCarve is the Theorem 2.1 transformation. Given the black-box weak
// carver A, it computes a strong-diameter ball carving of the subgraph
// induced by nodes (nil = all of g) that removes at most an eps fraction of
// the nodes. Every emitted cluster is connected with strong diameter at most
// 2·R + O(log n / eps), where R is the realized Steiner-tree depth of A when
// invoked with boundary parameter eps / (2·ceil(log₂ n)).
//
// The algorithm runs ceil(log₂ n) iterations per surviving component. Each
// iteration invokes A with the reduced boundary parameter. If some cluster C
// is giant (larger than n/2^i), a BFS from the root of C's Steiner tree
// grows a ball, starting at C's tree depth, until a radius r* whose boundary
// shell holds at most an eps/2 fraction of the ball; the ball is emitted as
// a final cluster and the shell dies. Otherwise A's unclustered nodes die.
// Either way every surviving component halves, so log n iterations suffice.
func StrongCarve(g *graph.Graph, nodes []int, eps float64, weak WeakCarver, m *rounds.Meter) (*cluster.Carving, error) {
	return StrongCarveContext(context.Background(), g, nodes, eps, weak, m)
}

// StrongCarveContext is StrongCarve with cancellation: the context is
// checked before every component task, so a canceled run stops within one
// weak-carver invocation and returns registry.ErrCanceled.
func StrongCarveContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, weak WeakCarver, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps %v outside (0, 1]", eps)
	}
	if nodes == nil {
		nodes = allNodes(g.N())
	}
	co := newCollector(g.N())
	if len(nodes) == 0 {
		return co.carving(), nil
	}

	total := len(nodes)
	iterLimit := log2ceil(total) + 1
	epsWeak := eps / (2 * float64(log2ceil(total)))
	window := shellWindow(total, eps)

	alive := make([]bool, g.N())
	for _, v := range nodes {
		alive[v] = true
	}

	type task struct {
		comp []int
		iter int
	}
	var queue []task
	for _, comp := range graph.Components(g, maskOf(g.N(), nodes)) {
		queue = append(queue, task{comp: comp, iter: 1})
	}

	dist := make([]int, g.N())
	for len(queue) > 0 {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		t := queue[0]
		queue = queue[1:]
		s := t.comp
		if len(s) == 0 {
			continue
		}
		if len(s) == 1 {
			co.emit(s, s[0])
			continue
		}
		if t.iter > iterLimit {
			// Unreachable by the halving invariant; emit the component
			// whole so the output stays a valid clustering.
			co.emit(s, s[0])
			continue
		}

		weakCarving, err := weak(g, s, epsWeak, m)
		if err != nil {
			return nil, fmt.Errorf("core: weak carver: %w", err)
		}
		members := weakCarving.Members()

		// Information gathering over Steiner trees to find cluster sizes:
		// depth x congestion rounds.
		maxDepth := 0
		for cl := range members {
			if tr := weakCarving.Trees[cl]; tr != nil {
				if d := tr.Depth(); d > maxDepth {
					maxDepth = d
				}
			}
		}
		congestion := log2ceil(g.N())
		m.Charge("thm21/gather", int64(maxDepth+1)*int64(congestion))

		threshold := float64(total) / math.Exp2(float64(t.iter))
		giant := -1
		for cl, ms := range members {
			if float64(len(ms)) > threshold {
				giant = cl
				break
			}
		}

		sMask := maskOf(g.N(), s)
		if giant < 0 {
			// Case (I): commit A's removals; recurse on survivor components.
			for _, v := range s {
				if weakCarving.Assign[v] == cluster.Unclustered {
					sMask[v] = false
					alive[v] = false
				}
			}
			for _, comp := range graph.Components(g, sMask) {
				queue = append(queue, task{comp: comp, iter: t.iter + 1})
			}
			continue
		}

		// Case (II): grow a ball from the giant cluster's tree root inside
		// G[S]; A's removals are NOT committed (the ball may swallow them).
		root := weakCarving.Centers[giant]
		depthR := memberTreeDepth(weakCarving.Trees[giant], members[giant])
		sizes := graph.NeighborhoodSizes(g, sMask, []int{root}, dist)
		maxLayer := len(sizes) - 1
		rStart := depthR
		if rStart > maxLayer {
			rStart = maxLayer
		}
		rStar := rStart
		for r := rStart; r < maxLayer && r < rStart+window; r++ {
			if float64(sizes[r]) >= (1-eps/2)*float64(sizeAt(sizes, r+1)) {
				rStar = r
				break
			}
			rStar = r + 1
		}
		m.Charge("thm21/bfs", int64(rStar)+2)

		var ball, shell []int
		for _, v := range s {
			switch {
			case dist[v] >= 0 && dist[v] <= rStar:
				ball = append(ball, v)
			case dist[v] == rStar+1:
				shell = append(shell, v)
			}
		}
		co.emit(ball, root)
		for _, v := range ball {
			sMask[v] = false
		}
		for _, v := range shell {
			sMask[v] = false
			alive[v] = false
		}
		for _, comp := range graph.Components(g, sMask) {
			queue = append(queue, task{comp: comp, iter: t.iter + 1})
		}
	}
	return co.carving(), nil
}

// CarveRG is Theorem 2.2: StrongCarve instantiated with the deterministic
// weak-diameter carver of internal/rg.
func CarveRG(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	return CarveRGContext(context.Background(), g, nodes, eps, m)
}

// CarveRGContext is CarveRG with cancellation support.
func CarveRGContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	return StrongCarveContext(ctx, g, nodes, eps, rg.Carve, m)
}

// DecomposeContext is the standard reduction from network decomposition to
// ball carving used by Theorems 2.3 and 3.4: repeat the carver with
// eps = 1/2 on the remaining nodes; clusters found in iteration i receive
// color i. A deterministic carver yields at most ceil(log₂ n) + 1 colors.
// Cancellation is observed before every color iteration and inside
// context-aware carvers.
func DecomposeContext(ctx context.Context, g *graph.Graph, carver CtxStrongCarver, m *rounds.Meter) (*cluster.Decomposition, error) {
	n := g.N()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	var (
		color   []int
		centers []int
		k       int
	)
	remaining := allNodes(n)
	for iter := 0; len(remaining) > 0; iter++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		if iter > 4*(log2ceil(n)+2) {
			return nil, fmt.Errorf("core: decomposition did not converge after %d colors", iter)
		}
		c, err := carver(ctx, g, remaining, 0.5, m)
		if err != nil {
			return nil, err
		}
		for i, members := range c.Members() {
			for _, v := range members {
				assign[v] = k
			}
			color = append(color, iter)
			center := i
			if len(c.Centers) == c.K {
				center = c.Centers[i]
			} else if len(members) > 0 {
				center = members[0]
			}
			centers = append(centers, center)
			k++
		}
		var rest []int
		for _, v := range remaining {
			if assign[v] == cluster.Unclustered {
				rest = append(rest, v)
			}
		}
		remaining = rest
	}
	colors := 0
	for _, col := range color {
		if col+1 > colors {
			colors = col + 1
		}
	}
	return &cluster.Decomposition{Assign: assign, Color: color, K: k, Colors: colors, Centers: centers}, nil
}

// DecomposeRG is Theorem 2.3: a deterministic strong-diameter network
// decomposition with O(log n) colors and O(log³ n) cluster diameter.
func DecomposeRG(g *graph.Graph, m *rounds.Meter) (*cluster.Decomposition, error) {
	return DecomposeRGContext(context.Background(), g, m)
}

// DecomposeRGContext is DecomposeRG with cancellation support.
func DecomposeRGContext(ctx context.Context, g *graph.Graph, m *rounds.Meter) (*cluster.Decomposition, error) {
	return DecomposeContext(ctx, g, CarveRGContext, m)
}

// memberTreeDepth returns the maximum tree depth over the given members
// (relay-only nodes deeper than every member do not matter for covering the
// cluster).
func memberTreeDepth(t *cluster.Tree, members []int) int {
	if t == nil {
		return 0
	}
	max := 0
	for _, v := range members {
		if d := t.DepthOf(v); d > max {
			max = d
		}
	}
	return max
}

// shellWindow returns the number of radius growth steps that guarantees a
// thin shell: growing by a factor 1/(1-eps/2) more than window times would
// exceed n nodes.
func shellWindow(n int, eps float64) int {
	growth := -math.Log(1 - eps/2)
	w := int(math.Ceil(math.Log(float64(n))/growth)) + 1
	if w < 2 {
		w = 2
	}
	return w
}

func sizeAt(sizes []int, r int) int {
	if r >= len(sizes) {
		return sizes[len(sizes)-1]
	}
	return sizes[r]
}

func maskOf(n int, nodes []int) []bool {
	mask := make([]bool, n)
	for _, v := range nodes {
		mask[v] = true
	}
	return mask
}

func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
