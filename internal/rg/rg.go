// Package rg implements the deterministic weak-diameter ball carving of
// Rozhoň and Ghaffari [RG20], which the paper uses as its black-box
// algorithm A (the paper plugs in the optimized variant of Ghaffari, Grunau,
// and Rozhoň [GGR21]; see DESIGN.md for the substitution note).
//
// Given an n-node graph and a boundary parameter ε, Carve removes at most an
// ε fraction of the nodes and clusters the rest into non-adjacent clusters,
// each augmented with a Steiner tree in the host graph such that
//
//   - every cluster member is a tree node (relays may be non-members or even
//     dead nodes, which is exactly why the diameter guarantee is weak);
//   - the tree depth is R(n,ε) = O(log³ n / ε);
//   - each edge belongs to at most L(n,ε) = b = ⌈log₂ n⌉ trees.
//
// The algorithm runs in b phases, one per identifier bit. In phase i, a
// cluster is red if bit i of its label is 1 and blue otherwise. Each step,
// every live blue node adjacent to a live, non-retired red cluster proposes
// to its smallest-label candidate through its smallest-id neighbor in that
// cluster. A red cluster that would grow by at least δ·|C| (δ = ε/(2b))
// accepts all proposers — they adopt its label and attach to its Steiner
// tree through the proposal edge — and otherwise it retires for the phase
// and its proposers die. The classic invariant makes this correct: a node
// only ever joins an *adjacent* cluster, and adjacent live nodes agree on
// all previously processed label bits, so processed bits never regress.
package rg

import (
	"fmt"
	"math/bits"
	"slices"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// Params reports the theoretical guarantees of Carve for a given n and ε,
// with explicit constants matching the implementation. Theorem 2.1 consumes
// these bounds when sizing its BFS windows.
type Params struct {
	Bits       int // b: number of label bits (phases)
	Delta      float64
	MaxDepth   int // R(n, ε) bound on Steiner tree depth
	Congestion int // L(n, ε) bound on per-edge tree count
}

// ParamsFor computes the parameter bounds for an n-node run with boundary ε.
func ParamsFor(n int, eps float64) Params {
	b := labelBits(n)
	delta := eps / (2 * float64(b))
	// A cluster grows for at most log_{1+δ}(n) accepting steps per phase and
	// can grow in every phase; each accepting step deepens its tree by at
	// most one hop.
	perPhase := growthSteps(n, delta)
	return Params{
		Bits:       b,
		Delta:      delta,
		MaxDepth:   b * perPhase,
		Congestion: b,
	}
}

// Carve runs the deterministic weak-diameter ball carving on the subgraph
// induced by nodes (nil means all of g), with boundary parameter
// eps ∈ (0, 1]. The returned carving assigns cluster ids to surviving nodes
// of the subgraph and leaves every other node Unclustered.
func Carve(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("rg: eps %v outside (0, 1]", eps)
	}
	n := g.N()
	if nodes == nil {
		nodes = make([]int, n)
		for v := range nodes {
			nodes[v] = v
		}
	}
	st := newState(g, nodes, eps)
	for phase := 0; phase < st.b; phase++ {
		st.runPhase(phase, m)
	}
	return st.carving(), nil
}

type proposal struct {
	label int // proposed-to cluster
	node  int
	via   int
}

// clusterInfo is the per-cluster growth state. Labels are node ids, so the
// state stores these as one flat slice indexed by label instead of a
// map[int]*clusterInfo — no per-node allocation. The Steiner trees are not
// here: every attachment goes to the state's carving-wide treeLog, and the
// trees are cut out of it once the carving is done. Member depths are not
// here either: a node is in exactly one cluster at a time, and its depth
// in that cluster's tree, kept in the state's node-indexed depth slice, is
// all that growth reads. A relay that leaves keeps its entry in the log.
type clusterInfo struct {
	size     int // live members
	maxDepth int // depth of the cluster's tree, kept incrementally
	retired  bool
}

type state struct {
	g     *graph.Graph
	b     int
	delta float64

	nodes    []int // the carved set S; every cluster label is one of these
	inS      []bool
	alive    []bool
	label    []int         // current cluster label, -1 for dead / outside S
	depth    []int         // node's depth in its current cluster's tree
	clusters []clusterInfo // indexed by label; meaningful only for labels in S
	log      treeLog       // every tree attachment, in order

	activeBlue []int  // candidate proposers, maintained incrementally
	inActive   []bool // membership mask for activeBlue

	// Proposal scratch, reused every step: props collects this step's
	// proposals in blue-node order, grouped holds them bucketed by label
	// (CSR-style counting scatter), propLabels the sorted distinct labels,
	// propEnds the per-group end offsets into grouped, and propCount the
	// per-label counting array (always reset to zero after a step).
	props      []proposal
	grouped    []proposal
	propLabels []int
	propEnds   []int
	propCount  []int
}

func newState(g *graph.Graph, nodes []int, eps float64) *state {
	n := g.N()
	st := &state{
		g:         g,
		b:         labelBits(n),
		delta:     eps / (2 * float64(labelBits(n))),
		nodes:     nodes,
		inS:       make([]bool, n),
		alive:     make([]bool, n),
		label:     make([]int, n),
		depth:     make([]int, n),
		clusters:  make([]clusterInfo, n),
		inActive:  make([]bool, n),
		propCount: make([]int, n),
	}
	for v := range st.label {
		st.label[v] = -1
	}
	for _, v := range nodes {
		st.inS[v] = true
		st.alive[v] = true
		st.label[v] = v
		st.clusters[v].size = 1
	}
	return st
}

func bit(x, i int) int { return (x >> i) & 1 }

func labelBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// growthSteps returns the maximum number of accepting steps a cluster can
// have within one phase: growing by a factor (1+δ) from size 1 cannot exceed
// n members.
func growthSteps(n int, delta float64) int {
	steps := 1
	size := 1.0
	for size < float64(n) {
		size *= 1 + delta
		size += 1 // acceptance adds at least one node even for tiny clusters
		steps++
		if steps > 64*1024*1024 {
			break // defensive; unreachable for sane (n, δ)
		}
	}
	return steps
}

// runPhase executes one bit phase to quiescence.
func (st *state) runPhase(phase int, m *rounds.Meter) {
	// Cluster labels are exactly the node ids of S, so the per-phase scans
	// walk the carved set, not all of the host graph's cluster slots.
	for _, l := range st.nodes {
		st.clusters[l].retired = false
	}
	st.seedActiveBlue(phase)

	for st.collectProposals(phase) > 0 {
		m.Charge("rg/propose", 2)
		st.resolveProposals(phase, m)
	}
	// Once per phase: pipelined tree maintenance over congested edges.
	depth := 0
	for _, l := range st.nodes {
		if d := st.clusters[l].maxDepth; d > depth {
			depth = d
		}
	}
	m.Charge("rg/congestion", int64(depth+1)*int64(phase+1))
}

// seedActiveBlue initializes the proposer candidate set for a phase: every
// live blue node with at least one live red neighbor.
//
//sdlint:hotpath
func (st *state) seedActiveBlue(phase int) {
	st.activeBlue = st.activeBlue[:0]
	for v := range st.inActive {
		st.inActive[v] = false
	}
	for v, ok := range st.alive {
		if !ok || bit(st.label[v], phase) != 0 {
			continue
		}
		for _, u := range st.g.Neighbors(v) {
			if st.alive[u] && bit(st.label[u], phase) == 1 {
				st.addActive(v)
				break
			}
		}
	}
}

// addActive adds v to the candidate proposer set once.
//
//sdlint:hotpath
func (st *state) addActive(v int) {
	if !st.inActive[v] {
		st.inActive[v] = true
		st.activeBlue = append(st.activeBlue, v)
	}
}

// collectProposals computes this step's proposals: every live blue
// candidate proposes to the smallest-label non-retired red cluster among
// its neighbors, through its smallest-id member neighbor. The proposals
// are bucketed by label into the reusable grouped/propLabels scratch
// (counting scatter — no per-step map) and their count is returned.
//
// activeBlue is not sorted. Each blue node makes one proposal, so it is in
// exactly one group, and a red cluster's size changes only through its own
// group within a step; every accept/retire decision, kill, label and depth
// is therefore the same in any proposer order. The order only decides the
// order in which a step's joiners enter their tree's node list.
//
//sdlint:hotpath
func (st *state) collectProposals(phase int) int {
	kept := st.activeBlue[:0]
	st.props = st.props[:0]
	for _, v := range st.activeBlue {
		if !st.alive[v] || bit(st.label[v], phase) != 0 {
			st.inActive[v] = false // joined a red cluster or died
			continue
		}
		bestLabel, bestVia := -1, -1
		for _, u := range st.g.Neighbors(v) {
			if !st.alive[u] || bit(st.label[u], phase) != 1 {
				continue
			}
			lu := st.label[u]
			if st.clusters[lu].retired {
				continue
			}
			if bestLabel == -1 || lu < bestLabel || (lu == bestLabel && u < bestVia) {
				bestLabel, bestVia = lu, u
			}
		}
		if bestLabel >= 0 {
			st.props = append(st.props, proposal{label: bestLabel, node: v, via: bestVia})
			kept = append(kept, v)
		} else {
			// No adjacent red cluster is live and non-retired; the node can
			// never be asked again this phase unless a neighbor joins a live
			// red cluster, which re-adds it.
			st.inActive[v] = false
		}
	}
	st.activeBlue = kept
	st.groupProposals()
	return len(st.props)
}

// groupProposals buckets st.props by label into st.grouped: distinct labels
// sorted in st.propLabels, group i ending at st.propEnds[i], proposals
// within a group in activeBlue order. propCount is used as the
// counting/cursor array and left zeroed.
//
//sdlint:hotpath
func (st *state) groupProposals() {
	st.propLabels = st.propLabels[:0]
	for _, p := range st.props {
		if st.propCount[p.label] == 0 {
			st.propLabels = append(st.propLabels, p.label)
		}
		st.propCount[p.label]++
	}
	slices.Sort(st.propLabels)
	// Size grouped to props by appending (reuse idiom — steady state has
	// the capacity); every slot is rewritten by the scatter below.
	st.grouped = st.grouped[:0]
	st.grouped = append(st.grouped, st.props...)
	st.propEnds = st.propEnds[:0]
	start := 0
	for _, l := range st.propLabels {
		c := st.propCount[l]
		st.propCount[l] = start // repurpose as scatter cursor
		start += c
		st.propEnds = append(st.propEnds, start)
	}
	for _, p := range st.props {
		st.grouped[st.propCount[p.label]] = p
		st.propCount[p.label]++
	}
	for _, l := range st.propLabels {
		st.propCount[l] = 0
	}
}

// resolveProposals applies accept/retire decisions for one step over the
// grouped proposals.
func (st *state) resolveProposals(phase int, m *rounds.Meter) {
	maxDepth := 0
	for _, l := range st.propLabels {
		if d := st.clusters[l].maxDepth; d > maxDepth {
			maxDepth = d
		}
	}
	m.Charge("rg/aggregate", 2*int64(maxDepth+1))
	m.ChargeMessages(int64(len(st.propLabels)))

	start := 0
	for i, l := range st.propLabels {
		x := &st.clusters[l]
		ps := st.grouped[start:st.propEnds[i]]
		start = st.propEnds[i]
		if float64(len(ps)) >= st.delta*float64(x.size) {
			st.accept(x, l, ps)
		} else {
			x.retired = true
			for _, p := range ps {
				if st.label[p.node] != l && st.alive[p.node] && bit(st.label[p.node], phase) == 0 {
					st.kill(p.node)
				}
			}
		}
	}
}

// accept moves every proposer of group l into cluster x and logs its
// attachment to x's tree under its proposal edge. A node never rejoins a
// tree it left (processed label bits never regress), so each entry is a
// new tree node.
func (st *state) accept(x *clusterInfo, l int, ps []proposal) {
	for _, p := range ps {
		v := p.node
		// The via node is a live member of x, hence already in x's tree
		// at depth[via]. Cannot fail by the membership invariant; fail
		// loudly in tests rather than corrupting the tree.
		if st.label[p.via] != l {
			panic(fmt.Sprintf("rg: tree invariant broken: via %d of %d is not in cluster %d", p.via, v, l))
		}
		st.clusters[st.label[v]].size--
		st.label[v] = l
		x.size++
		d := st.depth[p.via] + 1
		st.depth[v] = d
		st.log.add(treeEntry{label: l, node: v, parent: p.via, depth: d})
		if d > x.maxDepth {
			x.maxDepth = d
		}
		// Blue neighbors of the newly red node become candidates.
		for _, w := range st.g.Neighbors(v) {
			if st.alive[w] {
				st.addActive(w)
			}
		}
	}
}

func (st *state) kill(v int) {
	st.clusters[st.label[v]].size--
	st.alive[v] = false
	st.label[v] = -1
}

// carving materializes the final clusters in deterministic label order.
// Labels are node ids, so ascending slice order IS sorted label order; the
// label-to-dense-id table is one flat slice, not a map (-1 for labels that
// lost every member). The trees, singletons included, are cut out of the
// tree log here — the only point where anyone can observe them.
func (st *state) carving() *cluster.Carving {
	assign := make([]int, st.g.N())
	for v := range assign {
		assign[v] = cluster.Unclustered
	}
	k := 0
	id := make([]int, len(st.clusters))
	for l := range st.clusters {
		id[l] = -1
		if st.inS[l] && st.clusters[l].size > 0 {
			id[l] = k
			k++
		}
	}
	centers := make([]int, k)
	for l, c := range id {
		if c >= 0 {
			centers[c] = l
		}
	}
	for v, ok := range st.alive {
		if ok {
			assign[v] = id[st.label[v]]
		}
	}
	return &cluster.Carving{Assign: assign, K: k, Centers: centers, Trees: st.log.trees(centers, id)}
}
