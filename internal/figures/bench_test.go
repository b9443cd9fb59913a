package figures

import "testing"

var benchPoints []PointResult

// BenchmarkRunAllSharedMatrix runs fig2b's twelve points (four MR-RAND sizes
// on three networks) through one RunAll: four matrices built, each simulated
// three times.
func BenchmarkRunAllSharedMatrix(b *testing.B) {
	f, _ := ByID("fig2b")
	cfgs := f.Points(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := Runner{}.RunAll(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		benchPoints = points
	}
}
