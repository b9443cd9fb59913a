// Package metrics provides the small result-wrangling layer the benchmark
// harness reports through: named series over a shared x-axis, aligned text
// tables, CSV output, and improvement/summary arithmetic.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table is a set of named series sampled at shared x-axis points — one
// paper figure panel (x = shuffle data size, one series per network).
type Table struct {
	Title  string
	XLabel string
	YLabel string
	XTicks []string
	series []*Series
}

// Series is one curve.
type Series struct {
	Name   string
	Values []float64
}

// NewTable creates a table with the given axis labels and tick labels.
func NewTable(title, xlabel, ylabel string, xticks []string) *Table {
	return &Table{Title: title, XLabel: xlabel, YLabel: ylabel, XTicks: xticks}
}

// AddSeries appends a curve; its length must match the x-axis.
func (t *Table) AddSeries(name string, values []float64) *Series {
	if len(values) != len(t.XTicks) {
		panic(fmt.Sprintf("metrics: series %q has %d values for %d ticks", name, len(values), len(t.XTicks)))
	}
	s := &Series{Name: name, Values: values}
	t.series = append(t.series, s)
	return s
}

// Series returns the curves in insertion order.
func (t *Table) Series() []*Series { return t.series }

// SeriesByName returns a curve by name.
func (t *Table) SeriesByName(name string) (*Series, bool) {
	for _, s := range t.series {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Render draws an aligned text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%s (%s)\n", t.YLabel, t.XLabel)
	w := len(t.XLabel)
	for _, x := range t.XTicks {
		if len(x) > w {
			w = len(x)
		}
	}
	cols := make([]int, len(t.series))
	for i, s := range t.series {
		cols[i] = len(s.Name)
		for _, v := range s.Values {
			if n := len(formatCell(v)); n > cols[i] {
				cols[i] = n
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", w, t.XLabel)
	for i, s := range t.series {
		fmt.Fprintf(&b, "  %*s", cols[i], s.Name)
	}
	b.WriteByte('\n')
	for r, x := range t.XTicks {
		fmt.Fprintf(&b, "%-*s", w, x)
		for i, s := range t.series {
			fmt.Fprintf(&b, "  %*s", cols[i], formatCell(s.Values[r]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for r, x := range t.XTicks {
		b.WriteString(csvEscape(x))
		for _, s := range t.series {
			fmt.Fprintf(&b, ",%g", s.Values[r])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ImprovementPct returns the percentage reduction of series b relative to
// series a at each tick: 100*(a-b)/a.
func ImprovementPct(a, b *Series) []float64 {
	out := make([]float64, len(a.Values))
	for i := range out {
		if a.Values[i] == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = 100 * (a.Values[i] - b.Values[i]) / a.Values[i]
	}
	return out
}

// Mean returns the arithmetic mean, ignoring NaNs.
func Mean(vs []float64) float64 {
	var sum float64
	var n int
	for _, v := range vs {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Max returns the maximum, ignoring NaNs.
func Max(vs []float64) float64 {
	out := math.Inf(-1)
	for _, v := range vs {
		if !math.IsNaN(v) && v > out {
			out = v
		}
	}
	return out
}

// Timeline is a single-node time series (Fig. 7's per-sampling-point
// plots).
type Timeline struct {
	Title  string
	YLabel string
	Points []TimelinePoint
}

// TimelinePoint is one sample.
type TimelinePoint struct {
	Second float64
	Value  float64
}

// Render draws the timeline as two columns plus a crude sparkline so shapes
// are visible in terminal output.
func (tl *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s per sampling point)\n", tl.Title, tl.YLabel)
	max := math.Inf(-1)
	for _, p := range tl.Points {
		if p.Value > max {
			max = p.Value
		}
	}
	if max <= 0 {
		max = 1
	}
	for _, p := range tl.Points {
		bars := int(math.Round(40 * p.Value / max))
		fmt.Fprintf(&b, "%6.0fs %10.1f |%s\n", p.Second, p.Value, strings.Repeat("#", bars))
	}
	return b.String()
}

// CSV renders the timeline as two-column CSV with a header row.
func (tl *Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("second,value\n")
	for _, p := range tl.Points {
		fmt.Fprintf(&b, "%g,%g\n", p.Second, p.Value)
	}
	return b.String()
}

// Peak returns the timeline's maximum value.
func (tl *Timeline) Peak() float64 {
	max := 0.0
	for _, p := range tl.Points {
		if p.Value > max {
			max = p.Value
		}
	}
	return max
}
