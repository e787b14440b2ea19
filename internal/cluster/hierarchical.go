package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Linkage selects how the distance between two clusters is derived
// from member distances during agglomerative clustering.
type Linkage int

// Supported linkage criteria.
const (
	// SingleLinkage merges on the minimum pairwise distance. With a
	// cut at the similarity threshold it reproduces ThresholdGroups.
	SingleLinkage Linkage = iota
	// CompleteLinkage merges on the maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage merges on the unweighted mean pairwise distance.
	AverageLinkage
)

func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step.
type Merge struct {
	// A and B are node ids: ids < n are leaves (benchmark indices);
	// id n+k is the cluster created by the k-th merge.
	A, B int
	// Distance is the linkage distance at which A and B merged.
	Distance float64
}

// Dendrogram is the full merge history of an agglomerative clustering.
type Dendrogram struct {
	Names   []string
	Linkage Linkage
	Merges  []Merge
}

// Agglomerate performs hierarchical clustering over the distance
// matrix with the given linkage, recording n-1 merges.
func Agglomerate(m *Matrix, linkage Linkage) *Dendrogram {
	n := m.Len()
	d := &Dendrogram{Names: m.Names, Linkage: linkage}
	if n == 0 {
		return d
	}
	// active cluster id -> member leaf indices
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	nextID := n
	dist := func(a, b []int) float64 {
		switch linkage {
		case SingleLinkage:
			best := -1.0
			for _, i := range a {
				for _, j := range b {
					if best < 0 || m.D[i][j] < best {
						best = m.D[i][j]
					}
				}
			}
			return best
		case CompleteLinkage:
			worst := 0.0
			for _, i := range a {
				for _, j := range b {
					if m.D[i][j] > worst {
						worst = m.D[i][j]
					}
				}
			}
			return worst
		default:
			sum := 0.0
			for _, i := range a {
				for _, j := range b {
					sum += m.D[i][j]
				}
			}
			return sum / float64(len(a)*len(b))
		}
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
	fmt.Fprintf(&b, "agglomerative clustering (%s linkage)\n", d.Linkage)
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
