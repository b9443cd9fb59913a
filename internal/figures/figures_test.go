package figures

import (
	"strings"
	"testing"

	"mrmicro/internal/cluster"
	"mrmicro/internal/metrics"
	"mrmicro/internal/netsim"
)

func generate(t *testing.T, id string, o Options) *Output {
	t.Helper()
	f, ok := ByID(id)
	if !ok {
		t.Fatalf("figure %s not found", id)
	}
	out, err := f.Generate(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return out
}

func TestAllFiguresRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range All() {
		if ids[f.ID] {
			t.Errorf("duplicate figure id %s", f.ID)
		}
		ids[f.ID] = true
		if f.Title == "" || f.plan == nil {
			t.Errorf("figure %s incomplete", f.ID)
			continue
		}
		// Points lists the sweep at either scale without simulating; a grid
		// figure's is its table's series × ticks. Rendering zero-valued
		// results draws the table's shape, which is all this reads.
		for _, quick := range []bool{true, false} {
			points := f.Points(quick)
			if len(points) == 0 {
				t.Errorf("%s: Points(%v) is empty", f.ID, quick)
				continue
			}
			results := make([]PointResult, len(points))
			for i := range results {
				results[i].Samples = [][]cluster.Sample{nil} // fig7 reads slave 0's timeline
			}
			out := f.plan(quick).render(results)
			if (len(out.Tables) == 1) != (f.ID != "fig7") {
				t.Errorf("%s: %d tables; every figure but fig7 is one grid", f.ID, len(out.Tables))
			}
			for _, tb := range out.Tables {
				if want := len(tb.Series()) * len(tb.XTicks); len(points) != want {
					t.Errorf("%s: Points(%v) lists %d points, the grid is %d series x %d ticks",
						f.ID, quick, len(points), len(tb.Series()), len(tb.XTicks))
				}
			}
		}
	}
	for _, want := range []string{"fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
		"fig4a", "fig4b", "fig4c", "fig5", "fig6a", "fig6b", "fig7", "fig8a", "fig8b",
		"fig-codec", "fig-workloads", "fig-mergemem", "fig-spill", "summary"} {
		if !ids[want] {
			t.Errorf("missing figure %s", want)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("nonexistent figure found")
	}
}

// seriesVals fetches a named series or fails.
func seriesVals(t *testing.T, tb *metrics.Table, name string) []float64 {
	t.Helper()
	s, ok := tb.SeriesByName(name)
	if !ok {
		t.Fatalf("series %q missing", name)
	}
	return s.Values
}

func TestFig2QuickOrdering(t *testing.T) {
	for _, id := range []string{"fig2a", "fig2b", "fig2c"} {
		out := generate(t, id, Options{Quick: true})
		tb := out.Tables[0]
		one := seriesVals(t, tb, netsim.OneGigE.Name)
		ten := seriesVals(t, tb, netsim.TenGigE.Name)
		qdr := seriesVals(t, tb, netsim.IPoIBQDR32.Name)
		for i := range one {
			if !(one[i] > ten[i] && ten[i] >= qdr[i]) {
				t.Errorf("%s tick %d: want 1GigE > 10GigE >= QDR, got %.1f/%.1f/%.1f",
					id, i, one[i], ten[i], qdr[i])
			}
		}
		if !strings.Contains(out.Render(), "improves on") {
			t.Errorf("%s render lacks improvement notes", id)
		}
	}
}

// The calibration gates: full paper-scale sweeps must land in the
// acceptance bands recorded in DESIGN.md (paper value ±8 percentage
// points, orderings exact). These are the reproduction's contract; skipped
// in -short mode.
func TestFig2PaperBands(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	out := generate(t, "fig2a", Options{})
	tb := out.Tables[0]
	one, _ := tb.SeriesByName(netsim.OneGigE.Name)
	ten, _ := tb.SeriesByName(netsim.TenGigE.Name)
	qdr, _ := tb.SeriesByName(netsim.IPoIBQDR32.Name)
	impTen := metrics.Mean(metrics.ImprovementPct(one, ten))
	impQDR := metrics.Mean(metrics.ImprovementPct(one, qdr))
	t.Logf("fig2a: 10GigE %.1f%% (paper 17%%), QDR %.1f%% (paper 24%%)", impTen, impQDR)
	if impTen < 9 || impTen > 25 {
		t.Errorf("10GigE improvement %.1f%% outside band [9,25]", impTen)
	}
	if impQDR < 16 || impQDR > 32 {
		t.Errorf("QDR improvement %.1f%% outside band [16,32]", impQDR)
	}
	if impQDR <= impTen {
		t.Errorf("QDR (%.1f%%) must beat 10GigE (%.1f%%)", impQDR, impTen)
	}
}

func TestFig2SkewDoublesJobTime(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	avg := generate(t, "fig2a", Options{})
	skew := generate(t, "fig2c", Options{})
	a := seriesVals(t, avg.Tables[0], netsim.OneGigE.Name)
	s := seriesVals(t, skew.Tables[0], netsim.OneGigE.Name)
	for i := range a {
		ratio := s[i] / a[i]
		if ratio < 1.5 || ratio > 3.2 {
			t.Errorf("tick %d: skew/avg ratio = %.2f, paper says ~2x", i, ratio)
		}
	}
}

func TestFig3YarnSkewAmplified(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	avg := generate(t, "fig3a", Options{})
	skew := generate(t, "fig3c", Options{})
	a := seriesVals(t, avg.Tables[0], netsim.OneGigE.Name)
	s := seriesVals(t, skew.Tables[0], netsim.OneGigE.Name)
	// Paper: skew increases job time by more than 3x on the wider YARN jobs.
	ratio := metrics.Mean([]float64{s[len(s)-1] / a[len(a)-1], s[0] / a[0]})
	if ratio < 2.2 {
		t.Errorf("YARN skew/avg ratio = %.2f, paper says >3x", ratio)
	}
	t.Logf("fig3 skew/avg ratio = %.2f (paper: >3x)", ratio)
}

func TestFig4BiggerKVFasterAtFixedSize(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	t10 := generate(t, "fig4a", Options{})
	t1k := generate(t, "fig4b", Options{})
	t10k := generate(t, "fig4c", Options{})
	last := func(o *Output) float64 {
		vals := seriesVals(t, o.Tables[0], netsim.IPoIBQDR32.Name)
		return vals[len(vals)-1]
	}
	a, b, c := last(t10), last(t1k), last(t10k)
	t.Logf("fig4 @16GB QDR: 10B=%.0fs 1KB=%.0fs 10KB=%.0fs", a, b, c)
	if !(a > b && b > c) {
		t.Errorf("job time must fall as k/v grows: %.0f / %.0f / %.0f", a, b, c)
	}
	// Paper: 16 GB goes from ~1280s (10 B) to ~170s (10 KB) — a large
	// multiple; require at least 3x.
	if a < 3*c {
		t.Errorf("10B (%.0fs) should be >= 3x 10KB (%.0fs)", a, c)
	}
}

func TestFig5MoreTasksFaster(t *testing.T) {
	out := generate(t, "fig5", Options{Quick: true})
	tb := out.Tables[0]
	for _, prof := range []string{netsim.TenGigE.Name, netsim.IPoIBQDR32.Name} {
		small := seriesVals(t, tb, prof+"-4M-2R")
		big := seriesVals(t, tb, prof+"-8M-4R")
		for i := range small {
			if big[i] >= small[i] {
				t.Errorf("%s tick %d: 8M-4R (%.1f) not faster than 4M-2R (%.1f)",
					prof, i, big[i], small[i])
			}
		}
	}
}

func TestFig5QDRBenefitsMoreFromConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	out := generate(t, "fig5", Options{})
	tb := out.Tables[0]
	gain := func(prof string) float64 {
		small := seriesVals(t, tb, prof+"-4M-2R")
		big := seriesVals(t, tb, prof+"-8M-4R")
		n := len(small) - 1
		return 100 * (small[n] - big[n]) / small[n]
	}
	gTen, gQDR := gain(netsim.TenGigE.Name), gain(netsim.IPoIBQDR32.Name)
	t.Logf("fig5 @32GB: doubling tasks gains 10GigE %.1f%%, QDR %.1f%% (paper: 24%% / 32%%)", gTen, gQDR)
	if gQDR <= gTen-2 { // QDR should benefit at least as much
		t.Errorf("QDR concurrency gain %.1f%% should be >= 10GigE %.1f%%", gQDR, gTen)
	}
}

func TestFig6TextSlowerThanBytes(t *testing.T) {
	bw := generate(t, "fig6a", Options{Quick: true})
	tx := generate(t, "fig6b", Options{Quick: true})
	b := seriesVals(t, bw.Tables[0], netsim.IPoIBQDR32.Name)
	x := seriesVals(t, tx.Tables[0], netsim.IPoIBQDR32.Name)
	for i := range b {
		if x[i] <= b[i] {
			t.Errorf("tick %d: Text (%.1f) should be slower than BytesWritable (%.1f)", i, x[i], b[i])
		}
	}
}

func TestFig7PeaksOrdered(t *testing.T) {
	out := generate(t, "fig7", Options{})
	if len(out.Timelines) != 6 { // cpu+net per network
		t.Fatalf("timelines = %d, want 6", len(out.Timelines))
	}
	var peaks []float64
	for i := 1; i < len(out.Timelines); i += 2 {
		peaks = append(peaks, out.Timelines[i].Peak())
	}
	t.Logf("fig7 peak rx MB/s: 1GigE=%.0f 10GigE=%.0f QDR=%.0f (paper: 110/520/950)",
		peaks[0], peaks[1], peaks[2])
	if !(peaks[0] < peaks[1] && peaks[1] < peaks[2]) {
		t.Errorf("peak ordering wrong: %v", peaks)
	}
	// Within 2x of the paper's observed peaks.
	paper := []float64{110, 520, 950}
	for i, p := range peaks {
		if p < paper[i]/2 || p > paper[i]*2 {
			t.Errorf("network %d peak %.0f MB/s outside 2x of paper's %.0f", i, p, paper[i])
		}
	}
}

func TestFig8RDMABand(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	for _, id := range []string{"fig8a", "fig8b"} {
		out := generate(t, id, Options{})
		tb := out.Tables[0]
		ipoib, _ := tb.SeriesByName("IPoIB(56Gbps)")
		rdma, _ := tb.SeriesByName("RDMA(56Gbps)")
		imp := metrics.Mean(metrics.ImprovementPct(ipoib, rdma))
		t.Logf("%s: RDMA improvement %.1f%% (paper: 20-30%%)", id, imp)
		if imp < 12 || imp > 45 {
			t.Errorf("%s: RDMA improvement %.1f%% outside band [12,45]", id, imp)
		}
		for i := range ipoib.Values {
			if rdma.Values[i] >= ipoib.Values[i] {
				t.Errorf("%s tick %d: RDMA not faster", id, i)
			}
		}
	}
}

func TestSummaryRuns(t *testing.T) {
	out := generate(t, "summary", Options{Quick: true})
	if len(out.Notes) != 3 {
		t.Fatalf("summary notes = %d", len(out.Notes))
	}
	for _, n := range out.Notes {
		if !strings.Contains(n, "%") {
			t.Errorf("note lacks percentage: %s", n)
		}
	}
}

func TestOutputRenderComplete(t *testing.T) {
	out := generate(t, "fig2a", Options{Quick: true})
	r := out.Render()
	for _, want := range []string{"fig2a", "Fig. 2", "Shuffle Data Size", "note:"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
