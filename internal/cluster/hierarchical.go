package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Merge records one agglomeration step.
type Merge struct {
	// A and B are node ids: ids < n are leaves (benchmark indices);
	// id n+k is the cluster created by the k-th merge.
	A, B int
	// Distance is the linkage distance at which A and B merged.
	Distance float64
}

// Dendrogram is the full merge history of a single-linkage clustering.
type Dendrogram struct {
	Names  []string
	Merges []Merge
}

// Agglomerate performs single-linkage hierarchical clustering over the
// distance matrix, recording n-1 merges: two clusters merge at the
// minimum distance between their members. With a cut at the similarity
// threshold it reproduces ThresholdGroups.
func Agglomerate(m *Matrix) *Dendrogram {
	n := m.Len()
	d := &Dendrogram{Names: m.Names}
	if n == 0 {
		return d
	}
	// active cluster id -> member leaf indices
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	nextID := n
	// dist is the single-linkage distance between two clusters.
	dist := func(a, b []int) float64 {
		best := -1.0
		for _, i := range a {
			for _, j := range b {
				if best < 0 || m.D[i][j] < best {
					best = m.D[i][j]
				}
			}
		}
		return best
	}
	for len(members) > 1 {
		ids := make([]int, 0, len(members))
		for id := range members {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		bestA, bestB, bestD := -1, -1, -1.0
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				dd := dist(members[ids[x]], members[ids[y]])
				if bestD < 0 || dd < bestD {
					bestA, bestB, bestD = ids[x], ids[y], dd
				}
			}
		}
		merged := append(append([]int{}, members[bestA]...), members[bestB]...)
		delete(members, bestA)
		delete(members, bestB)
		members[nextID] = merged
		d.Merges = append(d.Merges, Merge{A: bestA, B: bestB, Distance: bestD})
		nextID++
	}
	return d
}

// ASCII renders the merge history as an indented text tree, one line
// per merge in ascending distance order, for quick terminal
// inspection of benchmark similarity structure.
func (d *Dendrogram) ASCII() string {
	var b strings.Builder
	b.WriteString("agglomerative clustering (single linkage)\n")
	labels := make(map[int]string, 2*len(d.Names))
	for i, name := range d.Names {
		labels[i] = name
	}
	id := len(d.Names)
	for _, mg := range d.Merges {
		label := "{" + labels[mg.A] + ", " + labels[mg.B] + "}"
		labels[id] = label
		fmt.Fprintf(&b, "  %7.1f  %s + %s\n", mg.Distance, labels[mg.A], labels[mg.B])
		id++
	}
	return b.String()
}
