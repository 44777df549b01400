// Package cluster defines the output types shared by every decomposition and
// ball-carving algorithm in this repository — carvings, colored
// decompositions, and Steiner trees — together with the validators that the
// test suite and cmd/verify use as correctness oracles.
//
// Terminology follows the paper:
//
//   - A (C, D) strong-diameter network decomposition partitions the nodes
//     into clusters colored with C colors so that same-color clusters are
//     non-adjacent and each cluster's induced subgraph has diameter <= D.
//   - A strong-diameter ball carving with boundary parameter ε removes at
//     most an ε fraction of nodes and clusters the rest into non-adjacent
//     clusters of bounded induced diameter.
//   - A weak-diameter carving relaxes the diameter to be measured in the
//     host graph and augments each cluster with a Steiner tree of bounded
//     depth; each edge may appear in at most L trees (congestion).
package cluster

import (
	"fmt"
	"slices"

	"strongdecomp/internal/graph"
)

// Unclustered marks a node that belongs to no cluster (dead/removed).
const Unclustered = -1

// Tree is a Steiner tree over the host graph, stored flat: Nodes lists the
// tree nodes in insertion order, root first and every parent before its
// children, and Parents[i] and Depths[i] are Nodes[i]'s parent (-1 for the
// root) and hop distance to the root. Tree nodes may include relay nodes
// that are not cluster members; that is exactly what makes a cluster's
// diameter "weak".
type Tree struct {
	Root    int
	Nodes   []int
	Parents []int
	Depths  []int
}

// NewTree returns a tree containing only the root.
func NewTree(root int) *Tree {
	return &Tree{Root: root, Nodes: []int{root}, Parents: []int{-1}, Depths: []int{0}}
}

// Append attaches node v under parent at the given depth. It does not
// look anything up: the caller guarantees that parent is already in the
// tree at depth-1 and that v is not (Validate checks both).
func (t *Tree) Append(v, parent, depth int) {
	t.Nodes = append(t.Nodes, v)
	t.Parents = append(t.Parents, parent)
	t.Depths = append(t.Depths, depth)
}

// Depth returns the maximum root-to-node hop distance in the tree.
func (t *Tree) Depth() int {
	max := 0
	for _, d := range t.Depths {
		if d > max {
			max = d
		}
	}
	return max
}

// Validate checks the flat layout and the tree's edges against g: the
// root comes first with parent -1 and depth 0, node ids are in range and
// distinct, every parent precedes its child, every depth is its parent's
// plus one, and every tree edge exists in g.
func (t *Tree) Validate(g *graph.Graph) error {
	n := len(t.Nodes)
	if n == 0 || len(t.Parents) != n || len(t.Depths) != n {
		return fmt.Errorf("cluster: tree has %d nodes, %d parents, %d depths", n, len(t.Parents), len(t.Depths))
	}
	if t.Nodes[0] != t.Root || t.Parents[0] != -1 || t.Depths[0] != 0 {
		return fmt.Errorf("cluster: tree root %d is not first with parent -1 and depth 0", t.Root)
	}
	depth := make(map[int]int, n)
	for i, v := range t.Nodes {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("cluster: tree node %d out of range", v)
		}
		if _, dup := depth[v]; dup {
			return fmt.Errorf("cluster: tree node %d appears twice", v)
		}
		if i > 0 {
			p := t.Parents[i]
			pd, ok := depth[p]
			if !ok {
				return fmt.Errorf("cluster: parent %d of tree node %d does not precede it", p, v)
			}
			if t.Depths[i] != pd+1 {
				return fmt.Errorf("cluster: tree node %d has depth %d under a parent at depth %d", v, t.Depths[i], pd)
			}
			if !g.HasEdge(v, p) {
				return fmt.Errorf("cluster: tree edge (%d,%d) not in graph", v, p)
			}
		}
		depth[v] = t.Depths[i]
	}
	return nil
}

// TreeFromParents builds a flat tree from a root and a child-to-parent map
// (the root may map to -1 or be absent), ordering the nodes from the root
// outward — by depth, then by id — so the result does not depend on map
// iteration order. A map with a cycle, a second root or a node whose
// parent chain leaves the map is rejected.
func TreeFromParents(root int, parent map[int]int) (*Tree, error) {
	if p, ok := parent[root]; ok && p != -1 {
		return nil, fmt.Errorf("cluster: tree root %d has parent %d", root, p)
	}
	var rest []int
	for v := range parent {
		if v != root {
			rest = append(rest, v)
		}
	}
	slices.Sort(rest)
	children := make(map[int][]int, len(rest))
	for _, v := range rest {
		children[parent[v]] = append(children[parent[v]], v)
	}
	t := NewTree(root)
	for i := 0; i < len(t.Nodes); i++ {
		for _, c := range children[t.Nodes[i]] {
			t.Append(c, t.Nodes[i], t.Depths[i]+1)
		}
	}
	if len(t.Nodes) != len(rest)+1 {
		return nil, fmt.Errorf("cluster: %d of %d tree nodes never reach root %d (a cycle or a dangling parent)",
			len(rest)+1-len(t.Nodes), len(rest)+1, root)
	}
	return t, nil
}

// Carving is the result of a ball-carving algorithm on a host graph: an
// assignment of surviving nodes to clusters. Dead (removed) nodes have
// Assign[v] == Unclustered. Centers and Trees are optional per-cluster
// metadata (weak carvers provide Steiner trees; strong carvers provide
// centers).
type Carving struct {
	Assign  []int   // node -> cluster id in [0, K) or Unclustered
	K       int     // number of clusters
	Centers []int   // cluster -> center node (optional, nil if absent)
	Trees   []*Tree // cluster -> Steiner tree (optional, nil if absent)
}

// Members returns per-cluster sorted member lists.
func (c *Carving) Members() [][]int {
	members := make([][]int, c.K)
	for v, cl := range c.Assign {
		if cl != Unclustered {
			members[cl] = append(members[cl], v)
		}
	}
	return members
}

// DeadFraction returns the fraction of nodes with no cluster, restricted to
// the given node set (nil means all nodes).
func (c *Carving) DeadFraction(nodes []int) float64 {
	if nodes == nil {
		dead := 0
		for _, cl := range c.Assign {
			if cl == Unclustered {
				dead++
			}
		}
		if len(c.Assign) == 0 {
			return 0
		}
		return float64(dead) / float64(len(c.Assign))
	}
	dead := 0
	for _, v := range nodes {
		if c.Assign[v] == Unclustered {
			dead++
		}
	}
	if len(nodes) == 0 {
		return 0
	}
	return float64(dead) / float64(len(nodes))
}

// Decomposition is a colored clustering of all nodes of the host graph.
type Decomposition struct {
	Assign  []int // node -> cluster id in [0, K)
	Color   []int // cluster -> color in [0, NumColors)
	K       int
	Colors  int   // number of colors
	Centers []int // optional cluster centers
}

// NodeColor returns the color of node v's cluster.
func (d *Decomposition) NodeColor(v int) int { return d.Color[d.Assign[v]] }

// Members returns per-cluster sorted member lists.
func (d *Decomposition) Members() [][]int {
	members := make([][]int, d.K)
	for v, cl := range d.Assign {
		members[cl] = append(members[cl], v)
	}
	return members
}
