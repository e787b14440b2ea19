package cluster

import "sort"

// CutAt returns the clusters present when all merges at distance >=
// cut are undone: groups of leaf indices, ordered by smallest member.
func (d *Dendrogram) CutAt(cut float64) [][]int {
	n := len(d.Names)
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	id := n
	for _, mg := range d.Merges {
		if mg.Distance < cut {
			merged := append(append([]int{}, members[mg.A]...), members[mg.B]...)
			delete(members, mg.A)
			delete(members, mg.B)
			members[id] = merged
		}
		id++
	}
	var groups [][]int
	for _, g := range members {
		sort.Ints(g)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}
