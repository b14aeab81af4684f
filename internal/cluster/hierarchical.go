package cluster

import (
	"fmt"
	"strings"

	"stsmatch/internal/stats"
)

// Agglomerative hierarchical clustering with average linkage (UPGMA).
// The paper's Section 5.3 applications (organ partitioning, genetic
// correlation) are classic hierarchical-clustering use cases; we
// provide both this and k-medoids so the clustering experiments can
// cross-check each other.

// DendrogramNode is one merge in the hierarchy. Leaves have Item >= 0
// and nil children; internal nodes record the merge height (the
// average-linkage distance at which the two children merged).
type DendrogramNode struct {
	Item        int // leaf item index, -1 for internal nodes
	Left, Right *DendrogramNode
	Height      float64
	Size        int
}

// Leaves returns the item indices under the node in left-to-right
// order.
func (n *DendrogramNode) Leaves() []int {
	if n == nil {
		return nil
	}
	if n.Item >= 0 {
		return []int{n.Item}
	}
	return append(n.Left.Leaves(), n.Right.Leaves()...)
}

// String renders a compact textual dendrogram.
func (n *DendrogramNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *DendrogramNode) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.Item >= 0 {
		fmt.Fprintf(b, "%s- item %d\n", indent, n.Item)
		return
	}
	fmt.Fprintf(b, "%s+ h=%.3f (%d items)\n", indent, n.Height, n.Size)
	n.Left.render(b, depth+1)
	n.Right.render(b, depth+1)
}

// Agglomerate builds the average-linkage dendrogram over the items of
// the distance matrix. It returns the root node (nil for an empty
// matrix).
func Agglomerate(m *stats.DistMatrix) *DendrogramNode {
	n := m.Size()
	if n == 0 {
		return nil
	}
	active := make([]*DendrogramNode, n)
	for i := range active {
		active[i] = &DendrogramNode{Item: i, Size: 1}
	}
	// Cluster-pair distances, updated with the Lance-Williams formula
	// for average linkage.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = m.Row(i)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for remaining > 1 {
		// Find the closest active pair.
		bi, bj, bd := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if bi < 0 || dist[i][j] < bd {
					bi, bj, bd = i, j, dist[i][j]
				}
			}
		}
		merged := &DendrogramNode{
			Item:   -1,
			Left:   active[bi],
			Right:  active[bj],
			Height: bd,
			Size:   active[bi].Size + active[bj].Size,
		}
		// Average-linkage update into slot bi; retire bj.
		si, sj := float64(active[bi].Size), float64(active[bj].Size)
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			d := (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
			dist[bi][k], dist[k][bi] = d, d
		}
		active[bi] = merged
		alive[bj] = false
		remaining--
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			return active[i]
		}
	}
	return nil
}
