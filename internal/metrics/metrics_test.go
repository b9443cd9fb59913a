package metrics

import (
	"math"
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Fig X", "Shuffle Size", "Job Execution Time (s)", []string{"8GB", "16GB"})
	t.AddSeries("1GigE", []float64{100, 200})
	t.AddSeries("10GigE", []float64{80, 160})
	return t
}

func TestRenderAligned(t *testing.T) {
	out := sample().Render()
	for _, want := range []string{"Fig X", "1GigE", "10GigE", "8GB", "200.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, ylabel, header, 2 rows
		t.Errorf("render lines = %d:\n%s", len(lines), out)
	}
}

func TestCSV(t *testing.T) {
	csv := sample().CSV()
	want := "Shuffle Size,1GigE,10GigE\n8GB,100,80\n16GB,200,160\n"
	if csv != want {
		t.Errorf("csv = %q, want %q", csv, want)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("t", `x,"label"`, "y", []string{"a"})
	tb.AddSeries("s", []float64{1})
	if !strings.Contains(tb.CSV(), `"x,""label"""`) {
		t.Errorf("csv escaping wrong: %q", tb.CSV())
	}
}

func TestMismatchedSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sample().AddSeries("bad", []float64{1})
}

func TestImprovementPct(t *testing.T) {
	tb := sample()
	a, _ := tb.SeriesByName("1GigE")
	b, _ := tb.SeriesByName("10GigE")
	imp := ImprovementPct(a, b)
	if imp[0] != 20 || imp[1] != 20 {
		t.Errorf("improvement = %v", imp)
	}
	zero := &Series{Name: "z", Values: []float64{0, 0}}
	if !math.IsNaN(ImprovementPct(zero, b)[0]) {
		t.Error("division by zero should yield NaN")
	}
}

func TestMeanMax(t *testing.T) {
	vs := []float64{1, 2, math.NaN(), 3}
	if Mean(vs) != 2 {
		t.Errorf("mean = %v", Mean(vs))
	}
	if Max(vs) != 3 {
		t.Errorf("max = %v", Max(vs))
	}
	if !math.IsNaN(Mean([]float64{math.NaN()})) {
		t.Error("all-NaN mean should be NaN")
	}
}

func TestSeriesByName(t *testing.T) {
	tb := sample()
	if _, ok := tb.SeriesByName("1GigE"); !ok {
		t.Error("existing series not found")
	}
	if _, ok := tb.SeriesByName("RDMA"); ok {
		t.Error("missing series found")
	}
}

func TestTimeline(t *testing.T) {
	tl := &Timeline{Title: "net", YLabel: "MB/s", Points: []TimelinePoint{
		{0, 10}, {1, 100}, {2, 50},
	}}
	if tl.Peak() != 100 {
		t.Errorf("peak = %v", tl.Peak())
	}
	out := tl.Render()
	if !strings.Contains(out, "100.0") || !strings.Contains(out, "#") {
		t.Errorf("timeline render:\n%s", out)
	}
}
