package microbench

import (
	"fmt"
	"slices"
	"testing"

	"mrmicro/internal/mapreduce"
)

// drawCounts is the reference Tally is held to: the record-by-record loop
// partitionCounts ran before the partitioners had bulk kernels. Record i goes
// where Partition sends it and carries GenMapper's key index i % numReduces.
func drawCounts(part mapreduce.Partitioner, n int64, numReduces int, combine bool) (counts, distinct []int64) {
	counts = make([]int64, numReduces)
	var seen [][]bool
	if combine {
		distinct = make([]int64, numReduces)
		seen = make([][]bool, numReduces)
		for r := range seen {
			seen[r] = make([]bool, numReduces)
		}
	}
	for i := int64(0); i < n; i++ {
		p := part.Partition(nil, nil, numReduces)
		counts[p]++
		if seen != nil {
			if k := int(i % int64(numReduces)); !seen[p][k] {
				seen[p][k] = true
				distinct[p]++
			}
		}
	}
	return counts, distinct
}

func next100(part mapreduce.Partitioner, numReduces int) []int {
	out := make([]int, 100)
	for i := range out {
		out[i] = part.Partition(nil, nil, numReduces)
	}
	return out
}

// TestTallyMatchesDraws: Tally(n) is n calls of Partition — same counts, same
// distinct-key counts, and the same partitioner state afterwards, whether the
// n records are tallied in one call or two.
func TestTallyMatchesDraws(t *testing.T) {
	for _, pattern := range Patterns() {
		for _, numReduces := range []int{1, 2, 3, 8, 16} {
			for _, n := range []int64{0, 1, int64(numReduces) - 1, int64(numReduces), 1000, 1<<20 + 7} {
				// MR-SKEW's thresholds sit inside the tallied stream when the
				// task emits exactly n records, and inside the hundred draws
				// that follow when it emits more.
				streams := []int64{n}
				if pattern == MRSkew {
					streams = []int64{n, n + n/7 + 40}
				}
				for _, pairsPerMap := range streams {
					for _, seed := range []int64{1, -0x5DEECE66D} {
						for _, combine := range []bool{false, true} {
							name := fmt.Sprintf("%s/R=%d/n=%d/of=%d/seed=%d/combine=%t", pattern, numReduces, n, pairsPerMap, seed, combine)
							fresh := func() mapreduce.Partitioner {
								p, err := NewPartitioner(pattern, pairsPerMap, seed)
								if err != nil {
									t.Fatal(err)
								}
								return p
							}
							drawn := fresh()
							wantCounts, wantDistinct := drawCounts(drawn, n, numReduces, combine)
							wantNext := next100(drawn, numReduces)

							whole := fresh()
							counts := make([]int64, numReduces)
							var distinct []int64
							if combine {
								distinct = make([]int64, numReduces)
							}
							whole.(tallier).Tally(counts, distinct, n, numReduces)
							if !slices.Equal(counts, wantCounts) {
								t.Fatalf("%s: Tally counts %v, draws %v", name, counts, wantCounts)
							}
							if !slices.Equal(distinct, wantDistinct) {
								t.Fatalf("%s: Tally distinct %v, draws %v", name, distinct, wantDistinct)
							}
							if got := next100(whole, numReduces); !slices.Equal(got, wantNext) {
								t.Fatalf("%s: after Tally the next draws are %v, after %d draws %v", name, got, n, wantNext)
							}

							split := fresh()
							counts = make([]int64, numReduces)
							split.(tallier).Tally(counts, nil, n/3, numReduces)
							split.(tallier).Tally(counts, nil, n-n/3, numReduces)
							if !slices.Equal(counts, wantCounts) {
								t.Fatalf("%s: Tally in two calls counts %v, draws %v", name, counts, wantCounts)
							}
							if got := next100(split, numReduces); !slices.Equal(got, wantNext) {
								t.Fatalf("%s: after Tally in two calls the next draws are %v, after %d draws %v", name, got, n, wantNext)
							}
						}
					}
				}
			}
		}
	}
}
