package rg

import "strongdecomp/internal/cluster"

// treeLog records every Steiner-tree attachment of one carving in the
// order it happened: node joined the tree of cluster label under parent,
// at depth. Growth appends here instead of to per-cluster trees, and
// trees cuts the per-cluster trees out of the log once, at the end. The
// log is a list of chunks, each twice the previous one's capacity up to a
// fixed maximum, so appending never copies earlier entries (a carving can
// log several entries per node) and a small carving allocates little.
type treeLog struct {
	chunks [][]treeEntry
}

type treeEntry struct {
	label, node, parent, depth int
}

const (
	treeLogFirstChunk = 64
	treeLogMaxChunk   = 4096
)

// add appends one entry.
func (lg *treeLog) add(e treeEntry) {
	last := len(lg.chunks) - 1
	if last < 0 || len(lg.chunks[last]) == cap(lg.chunks[last]) {
		size := treeLogFirstChunk
		if last >= 0 {
			size = min(2*cap(lg.chunks[last]), treeLogMaxChunk)
		}
		lg.chunks = append(lg.chunks, make([]treeEntry, 0, size))
		last++
	}
	lg.chunks[last] = append(lg.chunks[last], e)
}

// trees returns the Steiner trees of the output clusters: cluster c is
// rooted at label centers[c], and id maps a label to its cluster (id[l] < 0
// drops label l's entries). Each tree is its root followed by its label's
// entries in log order — so every parent precedes its children — and all
// trees share three backing arrays, filled by one counting scatter over
// the log.
func (lg *treeLog) trees(centers, id []int) []*cluster.Tree {
	k := len(centers)
	// off[c] is where tree c starts in the shared arrays; the root takes
	// the first slot.
	off := make([]int, k+1)
	for _, chunk := range lg.chunks {
		for _, e := range chunk {
			if c := id[e.label]; c >= 0 {
				off[c+1]++
			}
		}
	}
	for c := 0; c < k; c++ {
		off[c+1] += off[c] + 1
	}
	nodes := make([]int, off[k])
	parents := make([]int, off[k])
	depths := make([]int, off[k])
	next := make([]int, k)
	for c, l := range centers {
		nodes[off[c]], parents[off[c]] = l, -1
		next[c] = off[c] + 1
	}
	for _, chunk := range lg.chunks {
		for _, e := range chunk {
			if c := id[e.label]; c >= 0 {
				i := next[c]
				nodes[i], parents[i], depths[i] = e.node, e.parent, e.depth
				next[c]++
			}
		}
	}
	slab := make([]cluster.Tree, k)
	trees := make([]*cluster.Tree, k)
	for c := range trees {
		a, b := off[c], off[c+1]
		slab[c] = cluster.Tree{
			Root:    nodes[a],
			Nodes:   nodes[a:b:b],
			Parents: parents[a:b:b],
			Depths:  depths[a:b:b],
		}
		trees[c] = &slab[c]
	}
	return trees
}
