package graph

import (
	"math/rand"
)

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n >= 3 nodes.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	if n >= 3 {
		b.AddEdge(n-1, 0)
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// Torus returns the rows x cols torus (grid with wraparound). Both
// dimensions must be at least 3 to keep the graph simple.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.MustBuild()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) *Graph {
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < dim; d++ {
			u := v ^ (1 << d)
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.MustBuild()
}

// BinaryTree returns the complete-ish binary tree on n nodes where node v's
// children are 2v+1 and 2v+2.
func BinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random recursive tree on n nodes: node v
// attaches to a uniform node in 0..v-1.
func RandomTree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v))
	}
	return b.MustBuild()
}

// Caterpillar returns a spine path of length spine with legs pendant leaves
// attached to every spine node.
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	b := NewBuilder(n)
	for s := 0; s+1 < spine; s++ {
		b.AddEdge(s, s+1)
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(s, next)
			next++
		}
	}
	return b.MustBuild()
}

// Lollipop returns a clique of size k attached to a path of length tail.
func Lollipop(k, tail int) *Graph {
	b := NewBuilder(k + tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
		}
	}
	prev := 0
	for t := 0; t < tail; t++ {
		b.AddEdge(prev, k+t)
		prev = k + t
	}
	return b.MustBuild()
}

// Gnp returns an Erdős–Rényi G(n, p) random graph.
func Gnp(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	if p >= 1 {
		return Complete(n)
	}
	if p > 0 {
		// One Bernoulli(p) draw for each of the n*(n-1)/2 node pairs, in
		// (u, v) order: O(n²) time. Skipping ahead geometrically would be
		// O(n+m) but would change the RNG stream every seeded graph and
		// golden fixture depends on.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.MustBuild()
}

// ConnectedGnp returns G(n, p) with a Hamiltonian path over a random node
// permutation added, guaranteeing connectivity while keeping the random
// structure. It is the workhorse family of the experiments.
func ConnectedGnp(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(perm[i], perm[i+1])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// RandomRegularish returns a connected graph in which every node has degree
// close to d (between d and 2d due to dedup of the underlying union of d/2
// Hamiltonian cycles on random permutations). The family is an expander with
// high probability and serves as the expander workload.
func RandomRegularish(n, d int, seed int64) *Graph {
	if d < 2 {
		d = 2
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for c := 0; c < (d+1)/2; c++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u, v := perm[i], perm[(i+1)%n]
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// Subdivide returns g with every edge replaced by a path of length pathLen
// (pathLen >= 1; pathLen == 1 returns a copy). The original nodes keep their
// identifiers; subdivision nodes are appended after them. This implements
// the Section 3 barrier construction: subdividing a constant-degree expander
// into paths of length log(n)/ε yields a graph with conductance Θ(ε/log n)
// where every poly(n)-size subgraph has diameter Ω(log² n / ε).
func Subdivide(g *Graph, pathLen int) *Graph {
	if pathLen <= 1 {
		b := NewBuilder(g.N())
		g.ForEachEdge(b.AddEdge)
		return b.MustBuild()
	}
	n := g.N() + g.M()*(pathLen-1)
	b := NewBuilder(n)
	next := g.N()
	g.ForEachEdge(func(u, v int) {
		prev := u
		for i := 0; i < pathLen-1; i++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, v)
	})
	return b.MustBuild()
}

// SubdividedExpander builds the Section 3 barrier graph directly: a random
// near-d-regular expander on nExp nodes with every edge subdivided into a
// path of length pathLen.
func SubdividedExpander(nExp, d, pathLen int, seed int64) *Graph {
	return Subdivide(RandomRegularish(nExp, d, seed), pathLen)
}

// ClusterGraph returns k dense clusters of size sz (intra-cluster edge
// probability pIn) connected in a ring by single bridge edges. It models the
// "well-clusterable" workloads where decompositions find natural balls.
func ClusterGraph(k, sz int, pIn float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := k * sz
	b := NewBuilder(n)
	for c := 0; c < k; c++ {
		base := c * sz
		// Spanning path keeps each cluster connected at low pIn.
		for i := 0; i+1 < sz; i++ {
			b.AddEdge(base+i, base+i+1)
		}
		for i := 0; i < sz; i++ {
			for j := i + 1; j < sz; j++ {
				if rng.Float64() < pIn {
					b.AddEdge(base+i, base+j)
				}
			}
		}
	}
	for c := 0; c < k && k > 1; c++ {
		b.AddEdge(c*sz, ((c+1)%k)*sz)
	}
	return b.MustBuild()
}

// DisjointUnion returns the disjoint union of the given graphs, relabeling
// the i-th graph's nodes by the offset of the total size of its
// predecessors. It is used to test per-component behavior.
func DisjointUnion(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	off := 0
	for _, g := range gs {
		g.ForEachEdge(func(u, v int) {
			b.AddEdge(u+off, v+off)
		})
		off += g.N()
	}
	return b.MustBuild()
}
