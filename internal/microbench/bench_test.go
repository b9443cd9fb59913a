package microbench

import (
	"testing"

	"mrmicro/internal/apps"
	"mrmicro/internal/mrsim"
)

var benchSpec *mrsim.JobSpec

// BenchmarkBuildSpec times one spec build per tally kernel at the largest
// point a paper figure asks for, and the workload path at fig-workloads'
// quick scale: MR-AVG is a closed form (fig4a's 10-byte records, where the
// record-by-record build took a third of a second), MR-RAND draws every
// record, MR-SKEW the random third, wordcount runs the real mapper over a
// 512 KiB corpus.
func BenchmarkBuildSpec(b *testing.B) {
	base := Config{Slaves: 4, NumMaps: 16, NumReduces: 8, KeySize: 1024, ValueSize: 1024}
	avg, rnd, skew, wordcount := base, base, base, base
	avg.Pattern, avg.KeySize, avg.ValueSize = MRAvg, 10, 10
	rnd.Pattern = MRRand
	skew.Pattern = MRSkew
	wordcount.Workload, wordcount.SplitSize = apps.WordCount, 64<<10
	wordcount.InputSpec = "text:seed=1402,files=2,bytes=262144,shape=mixed"
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"avg-10B-16GB", avg.WithShuffleSize(16 << 30)},
		{"rand-1K-32GB", rnd.WithShuffleSize(32 << 30)},
		{"skew-1K-32GB", skew.WithShuffleSize(32 << 30)},
		{"wordcount-quick", wordcount},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec, err := BuildSpec(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchSpec = spec
			}
		})
	}
}
