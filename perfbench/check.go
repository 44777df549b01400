package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
)

// checker verifies decompositions in O(n+m) with buffers reused across
// operations, so checking every output does not add garbage to the
// measured loop.
type checker struct {
	dist  []int32
	queue []int32
}

// check verifies d on g: full cover, colours in range and same-colour
// clusters non-adjacent (cluster.CheckDecomposition without its quadratic
// diameter pass), then one BFS per cluster that stays inside the cluster.
// The BFS starts at the cluster's centre when d records centres, else at
// its first member; every cluster must reach all of its members, which
// proves strong connectivity. The result is the largest BFS depth, which
// is the cluster radius around the recorded centre.
func (c *checker) check(g *graph.Graph, d *cluster.Decomposition) (radius int, err error) {
	if err := cluster.CheckDecomposition(g, d, -1, true); err != nil {
		return 0, err
	}
	n := g.N()
	if cap(c.dist) < n {
		c.dist = make([]int32, n)
		c.queue = make([]int32, 0, n)
	}
	dist := c.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	roots := d.Centers
	if len(roots) != d.K {
		roots = make([]int, d.K)
		for i := range roots {
			roots[i] = -1
		}
		for v := n - 1; v >= 0; v-- {
			roots[d.Assign[v]] = v
		}
	}
	reached := 0
	for cl, root := range roots {
		if root < 0 || root >= n || d.Assign[root] != cl {
			return 0, fmt.Errorf("cluster %d: centre %d is not a member", cl, root)
		}
		size := 0
		q := append(c.queue[:0], int32(root))
		dist[root] = 0
		for h := 0; h < len(q); h++ {
			u := int(q[h])
			size++
			if int(dist[u]) > radius {
				radius = int(dist[u])
			}
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 && d.Assign[v] == cl {
					dist[v] = dist[u] + 1
					q = append(q, int32(v))
				}
			}
		}
		c.queue = q
		reached += size
	}
	if reached != n {
		for v := 0; v < n; v++ {
			if dist[v] < 0 {
				return 0, fmt.Errorf("cluster %d is disconnected: node %d unreachable from its centre", d.Assign[v], v)
			}
		}
	}
	return radius, nil
}

// digest fingerprints a decomposition's observable output: cluster and
// colour counts, the node-to-cluster assignment and the cluster colours.
// Served responses and library runs of the same (graph, seed) must agree
// on it exactly.
func digest(k, colors int, assign, color []int) string {
	h := sha256.New()
	buf := make([]byte, 0, 8*(2+len(assign)+len(color)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(colors))
	for _, x := range assign {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	for _, x := range color {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func decompDigest(d *cluster.Decomposition) string {
	return digest(d.K, d.Colors, d.Assign, d.Color)
}
