// Benchclassify: the paper's Section 4.2 benchmark-classification
// method on the published data.
//
// Each benchmark is a 43-element vector of parameter ranks (Table 9);
// Euclidean distance between vectors measures how similarly two
// benchmarks stress the processor; thresholding at sqrt(4000)
// reproduces the paper's Table 11 groups; and the medoid of each group
// is the representative to simulate when trimming a redundant suite.
//
// Run with:
//
//	go run ./examples/benchclassify
package main

import (
	"fmt"

	"pbsim/internal/cluster"
	"pbsim/internal/paperdata"
	"pbsim/internal/report"
)

func main() {
	m, err := cluster.DistanceMatrix(paperdata.Benchmarks, paperdata.RankVectors(paperdata.Table9))
	if err != nil {
		panic(err)
	}
	fmt.Println(report.DistanceTable(m, "Table 10 (recomputed from the published Table 9 ranks)"))

	groups := cluster.ThresholdGroups(m, paperdata.Threshold)
	fmt.Println(report.GroupTable(cluster.GroupNames(m, groups), paperdata.Threshold))

	reps := cluster.Representatives(m, groups)
	fmt.Println("Representative benchmark per group (simulate these instead of all 13):")
	for gi, r := range reps {
		names := cluster.GroupNames(m, groups)[gi]
		fmt.Printf("  %-28v -> %s\n", names, m.Names[r])
	}

	fmt.Println("\nSingle-linkage dendrogram (threshold-free view of the same structure):")
	fmt.Println(cluster.Agglomerate(m).ASCII())
}
