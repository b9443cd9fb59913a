package microbench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/netsim"
	"mrmicro/internal/writable"
)

func TestAvgPartitionerExactBalance(t *testing.T) {
	p, err := NewPartitioner(MRAvg, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	const R = 8
	counts := make([]int64, R)
	for i := 0; i < 1000; i++ {
		counts[p.Partition(nil, nil, R)]++
	}
	for r, c := range counts {
		if c != 125 {
			t.Errorf("reducer %d got %d, want 125", r, c)
		}
	}
}

func TestRandPartitionerMatchesJavaRandom(t *testing.T) {
	// MR-RAND must be bit-exact with java.util.Random.nextInt(R).
	p, _ := NewPartitioner(MRRand, 100, 42)
	// Reference: javarand directly.
	ref, _ := NewPartitioner(MRRand, 100, 42)
	for i := 0; i < 100; i++ {
		a := p.Partition(nil, nil, 8)
		b := ref.Partition(nil, nil, 8)
		if a != b {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestRandPartitionerRoughlyUniform(t *testing.T) {
	p, _ := NewPartitioner(MRRand, 1<<20, 7)
	const R = 8
	counts := make([]int64, R)
	for i := 0; i < 1<<20; i++ {
		counts[p.Partition(nil, nil, R)]++
	}
	want := float64(1<<20) / R
	for r, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("reducer %d share %.3f off uniform", r, float64(c)/want)
		}
	}
}

func TestSkewPartitionerDistribution(t *testing.T) {
	const N = 1 << 20
	const R = 8
	p, _ := NewPartitioner(MRSkew, N, 3)
	counts := make([]int64, R)
	for i := 0; i < N; i++ {
		counts[p.Partition(nil, nil, R)]++
	}
	frac := func(r int) float64 { return float64(counts[r]) / N }
	// Reducer 0: 50% prefix plus its share of the random remainder (~33%/8).
	if f := frac(0); f < 0.50 || f > 0.60 {
		t.Errorf("reducer 0 share = %.3f, want ~0.54", f)
	}
	// Reducer 1: 12.5% prefix + random share.
	if f := frac(1); f < 0.125 || f > 0.22 {
		t.Errorf("reducer 1 share = %.3f, want ~0.17", f)
	}
	// Reducer 2: ~4.7% prefix + random share.
	if f := frac(2); f < 0.046 || f > 0.14 {
		t.Errorf("reducer 2 share = %.3f, want ~0.09", f)
	}
	// Tail reducers: just the random share (~4.1% each).
	for r := 3; r < R; r++ {
		if f := frac(r); f < 0.02 || f > 0.07 {
			t.Errorf("reducer %d share = %.3f, want ~0.04", r, f)
		}
	}
	// Everything accounted for.
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != N {
		t.Errorf("total = %d, want %d", sum, N)
	}
}

func TestSkewPartitionerFixedAcrossRuns(t *testing.T) {
	run := func() []int64 {
		p, _ := NewPartitioner(MRSkew, 10000, 5)
		counts := make([]int64, 4)
		for i := 0; i < 10000; i++ {
			counts[p.Partition(nil, nil, 4)]++
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("skew pattern differs between runs")
		}
	}
}

func TestPartitionerRangeProperty(t *testing.T) {
	f := func(seed int64, r8 uint8, pat uint8) bool {
		R := int(r8%16) + 1
		pattern := Patterns()[pat%3]
		p, err := NewPartitioner(pattern, 200, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			v := p.Partition(nil, nil, R)
			if v < 0 || v >= R {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUnknownPatternRejected(t *testing.T) {
	if _, err := NewPartitioner(Pattern("MR-NOPE"), 1, 0); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestSerializedPairLen(t *testing.T) {
	// BytesWritable 1KB/1KB: 2*(4+1024) payload + IFile vints for length
	// 1028 (3 bytes each: prefix + two magnitude bytes).
	n, err := SerializedPairLen("BytesWritable", 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*(4+1024)+3+3 {
		t.Errorf("BytesWritable pair len = %d, want 2062", n)
	}
	// Text 10/10: vint(10)=1 per payload; lens 11/11 -> 1-byte vints.
	n, err = SerializedPairLen("Text", 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*(1+10)+1+1 {
		t.Errorf("Text pair len = %d", n)
	}
	if _, err := SerializedPairLen("Nope", 1, 1); err == nil {
		t.Error("bad type accepted")
	}
}

func TestBuildSpecMatchesLocalRun(t *testing.T) {
	// The simulated spec's record matrix must match what a REAL run of the
	// same benchmark produces, per pattern.
	for _, pat := range Patterns() {
		cfg := Config{
			Pattern:     pat,
			KeySize:     16,
			ValueSize:   32,
			PairsPerMap: 500,
			NumMaps:     3,
			NumReduces:  4,
			Slaves:      2,
			Seed:        11,
		}
		spec, err := BuildSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		job, err := BuildJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := localrun.Run(job, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Total records agree.
		if got, want := res.Counters.Task(mapreduce.CtrMapOutputRecords), spec.TotalRecords(); got != want {
			t.Errorf("%s: local map output %d != spec %d", pat, got, want)
		}
		// Per-reducer record counts agree EXACTLY: the spec builder ran the
		// same partitioner code with the same per-task seeds the real run
		// used.
		for r := 0; r < cfg.NumReduces; r++ {
			if got, want := res.PerReduceRecords[r], spec.ReduceRecords(r); got != want {
				t.Errorf("%s: reducer %d got %d records locally, spec says %d", pat, r, got, want)
			}
		}
	}
}

func TestBuildSpecSampledLargeStream(t *testing.T) {
	// Above the exact-draw cap the sampled path must still conserve totals.
	cfg := Config{
		Pattern:     MRRand,
		KeySize:     8,
		ValueSize:   8,
		PairsPerMap: maxExactDraws * 3, // forces sampling
		NumMaps:     2,
		NumReduces:  4,
		Slaves:      2,
	}
	spec, err := BuildSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.TotalRecords(), cfg.PairsPerMap*2; got != want {
		t.Errorf("sampled total = %d, want %d", got, want)
	}
	// Uniformity survives scaling.
	for r := 0; r < 4; r++ {
		share := float64(spec.ReduceRecords(r)) / float64(spec.TotalRecords())
		if share < 0.22 || share > 0.28 {
			t.Errorf("reducer %d share %.3f", r, share)
		}
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c, err := Config{PairsPerMap: 10}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Pattern != MRAvg || c.DataType != "BytesWritable" || c.Engine != EngineMRv1 {
		t.Error("defaults wrong")
	}
	if c.NumMaps != 16 || c.NumReduces != 8 { // 4 slaves default
		t.Errorf("task defaults = %d/%d", c.NumMaps, c.NumReduces)
	}
	if _, err := (Config{}).Normalize(); err == nil {
		t.Error("zero pairs accepted")
	}
	if _, err := (Config{PairsPerMap: 1, Network: "token-ring"}).Normalize(); err == nil {
		t.Error("bad network accepted")
	}
	if _, err := (Config{PairsPerMap: 1, Engine: "mrv3"}).Normalize(); err == nil {
		t.Error("bad engine accepted")
	}
	if _, err := (Config{PairsPerMap: 1, DataType: "Avro"}).Normalize(); err == nil {
		t.Error("bad data type accepted")
	}
}

func TestWithShuffleSize(t *testing.T) {
	base := Config{KeySize: 1024, ValueSize: 1024, NumMaps: 16, NumReduces: 8, PairsPerMap: 1}
	cfg := base.WithShuffleSize(16 << 30)
	got := cfg.ShuffleBytes()
	if math.Abs(float64(got)-float64(16<<30)) > 0.01*float64(16<<30) {
		t.Errorf("shuffle bytes = %d, want ~16GiB", got)
	}
}

func TestRunSmokeAllPatternsBothEngines(t *testing.T) {
	for _, pat := range Patterns() {
		for _, eng := range []Engine{EngineMRv1, EngineYARN} {
			cfg := Config{
				Pattern:     pat,
				Engine:      eng,
				PairsPerMap: 2000,
				Slaves:      2,
				NumMaps:     4,
				NumReduces:  4,
				Network:     netsim.TenGigE.Name,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", pat, eng, err)
			}
			if res.JobSeconds() <= 0 {
				t.Errorf("%s/%s: no time", pat, eng)
			}
			if res.ShuffleBytes != res.Config.ShuffleBytes() {
				t.Errorf("%s/%s: shuffled %d, config says %d", pat, eng, res.ShuffleBytes, res.Config.ShuffleBytes())
			}
		}
	}
}

func TestRunWithMonitor(t *testing.T) {
	cfg := Config{
		PairsPerMap:     50000,
		Slaves:          2,
		NumMaps:         4,
		NumReduces:      4,
		Network:         netsim.IPoIBQDR32.Name,
		MonitorInterval: time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("samples for %d slaves", len(res.Samples))
	}
	if res.PeakRxMBps() <= 0 {
		t.Error("no network activity observed")
	}
	out := res.Render()
	for _, want := range []string{"MR-AVG", "job execution time", "peak network rx", "shuffle data size"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestSkewSlowerThanAvgSimulated(t *testing.T) {
	base := Config{
		KeySize: 1024, ValueSize: 1024,
		Slaves: 2, NumMaps: 8, NumReduces: 4,
		Network: netsim.OneGigE.Name,
	}.WithShuffleSize(2 << 30)
	avgCfg := base
	avgCfg.Pattern = MRAvg
	skewCfg := base
	skewCfg.Pattern = MRSkew
	avg, err := Run(avgCfg)
	if err != nil {
		t.Fatal(err)
	}
	skew, err := Run(skewCfg)
	if err != nil {
		t.Fatal(err)
	}
	if skew.JobSeconds() <= avg.JobSeconds() {
		t.Errorf("skew %.1fs not slower than avg %.1fs", skew.JobSeconds(), avg.JobSeconds())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:      "512 B",
		2 << 10:  "2.0 KiB",
		3 << 20:  "3.0 MiB",
		16 << 30: "16.0 GiB",
		2 << 40:  "2.0 TiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestGenMapperUniqueKeys(t *testing.T) {
	g := &GenMapper{Pairs: 100, KeySize: 8, ValueSize: 8, DataType: "BytesWritable", NumReduces: 4}
	seen := map[string]bool{}
	var n int
	col := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		seen[string(k.(*writable.BytesWritable).Data)] = true
		if len(v.(*writable.BytesWritable).Data) != 8 {
			t.Fatal("value size wrong")
		}
		n++
		return nil
	})
	if err := g.Map(nil, nil, col, mapreduce.NullReporter{}); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("emitted %d records, want 100", n)
	}
	if len(seen) != 4 {
		t.Errorf("unique keys = %d, want 4 (= reducers)", len(seen))
	}
}

func TestGenMapperTextValid(t *testing.T) {
	g := &GenMapper{Pairs: 10, KeySize: 20, ValueSize: 30, DataType: "Text", NumReduces: 2}
	col := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		kb := writable.Marshal(k)
		var back writable.Text
		if err := writable.Unmarshal(kb, &back); err != nil {
			t.Fatalf("Text round trip: %v", err)
		}
		return nil
	})
	if err := g.Map(nil, nil, col, mapreduce.NullReporter{}); err != nil {
		t.Fatal(err)
	}
}

// TestGenMapperStream pins the emitted stream record by record — pair i is
// makePair of key index i mod uniq — including a task emitting fewer pairs
// than there are distinct keys, and holds the generator to O(uniq)
// allocations however many pairs it emits.
func TestGenMapperStream(t *testing.T) {
	for _, dt := range []string{"Text", "BytesWritable"} {
		for _, pairs := range []int64{3, 1000} {
			g := &GenMapper{Pairs: pairs, KeySize: 10, ValueSize: 12, DataType: dt, NumReduces: 7}
			i := 0
			col := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
				wk, wv, _ := makePair(dt, 10, 12, i%7)
				if !bytes.Equal(writable.Marshal(k), writable.Marshal(wk)) || !bytes.Equal(writable.Marshal(v), writable.Marshal(wv)) {
					t.Fatalf("%s pair %d differs from makePair(%d)", dt, i, i%7)
				}
				i++
				return nil
			})
			if err := g.Map(nil, nil, col, mapreduce.NullReporter{}); err != nil {
				t.Fatal(err)
			}
			if int64(i) != pairs {
				t.Errorf("%s: emitted %d pairs, want %d", dt, i, pairs)
			}
		}
	}
	discard := mapreduce.CollectorFunc(func(_, _ writable.Writable) error { return nil })
	allocs := func(pairs int64) float64 {
		g := &GenMapper{Pairs: pairs, KeySize: 10, ValueSize: 10, DataType: "Text", NumReduces: 4}
		return testing.AllocsPerRun(10, func() {
			if err := g.Map(nil, nil, discard, mapreduce.NullReporter{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(100000)
	if small != large || large > 4*4+1 {
		t.Errorf("Map allocates %.0f times for 100 pairs and %.0f for 100000, want equal and O(uniq)", small, large)
	}
}

func TestGenMapperBadConfig(t *testing.T) {
	g := &GenMapper{Pairs: 0}
	col := mapreduce.CollectorFunc(func(k, v writable.Writable) error { return nil })
	if err := g.Map(nil, nil, col, mapreduce.NullReporter{}); err == nil {
		t.Error("zero pairs accepted")
	}
	g2 := &GenMapper{Pairs: 1, DataType: "Unknown"}
	if err := g2.Map(nil, nil, col, mapreduce.NullReporter{}); err == nil {
		t.Error("bad data type accepted")
	}
}
