package figures

import (
	"fmt"

	"mrmicro/internal/costmodel"
	"mrmicro/internal/metrics"
	"mrmicro/internal/microbench"
)

// Knob is one perturbable cost-model constant.
type Knob struct {
	Name string
	Set  func(*costmodel.Model, float64) // multiply the constant by f
}

// Knobs lists the constants the sensitivity study perturbs.
func Knobs() []Knob {
	return []Knob{
		{"MapRecordCPU", func(m *costmodel.Model, f float64) { m.MapRecordCPU *= f }},
		{"MapByteCPU", func(m *costmodel.Model, f float64) { m.MapByteCPU *= f }},
		{"SortCompareCPU", func(m *costmodel.Model, f float64) { m.SortCompareCPU *= f }},
		{"MergeByteCPU", func(m *costmodel.Model, f float64) { m.MergeByteCPU *= f }},
		{"ReduceRecordCPU", func(m *costmodel.Model, f float64) { m.ReduceRecordCPU *= f }},
		{"ReduceByteCPU", func(m *costmodel.Model, f float64) { m.ReduceByteCPU *= f }},
		{"TaskStartup", func(m *costmodel.Model, f float64) { m.TaskStartup *= f }},
		{"Heartbeat", func(m *costmodel.Model, f float64) { m.Heartbeat *= f }},
		{"JobSetup", func(m *costmodel.Model, f float64) { m.JobSetup *= f }},
	}
}

// SensitivityResult is one knob's effect on the headline metric.
type SensitivityResult struct {
	Knob string
	// ImprovementAt is the QDR-vs-1GigE improvement (%) with the knob at
	// 0.5x, 1.0x and 2.0x of its calibrated value.
	ImprovementAt [3]float64
}

// Sensitivity measures how robust the reproduction's headline number (the
// IPoIB QDR improvement over 1 GigE at the Fig. 2a reference point) is to
// each cost-model constant: each knob is halved and doubled while the rest
// stay calibrated. Small spreads mean the conclusion does not hinge on the
// exact constant.
func Sensitivity(shuffleGB float64, o Options) ([]SensitivityResult, error) {
	// Flatten the knob × factor × profile grid into one point list so the
	// whole study runs through the (possibly concurrent, cached) runner.
	// Layout: for each knob, for each factor, the 1GigE then QDR point.
	knobs := Knobs()
	factors := []float64{0.5, 1.0, 2.0}
	var cfgs []microbench.Config
	for _, k := range knobs {
		for _, f := range factors {
			base := reference()
			base.Model = costmodel.Default()
			k.Set(base.Model, f)
			for _, r := range []rung{clusterA[0], clusterA[2]} {
				cfgs = append(cfgs, r.on(base).WithShuffleSize(gib(shuffleGB)))
			}
		}
	}
	points, err := o.runner().RunAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("sensitivity: %w", err)
	}

	var out []SensitivityResult
	k := 0
	for _, knob := range knobs {
		var r SensitivityResult
		r.Knob = knob.Name
		for i := range factors {
			oneGigE := points[k].JobSeconds
			qdr := points[k+1].JobSeconds
			k += 2
			r.ImprovementAt[i] = 100 * (oneGigE - qdr) / oneGigE
		}
		out = append(out, r)
	}
	return out, nil
}

// SensitivityTable renders the study as a metrics table.
func SensitivityTable(shuffleGB float64, o Options) (*metrics.Table, error) {
	results, err := Sensitivity(shuffleGB, o)
	if err != nil {
		return nil, err
	}
	ticks := make([]string, len(results))
	for i, r := range results {
		ticks[i] = r.Knob
	}
	t := metrics.NewTable(
		fmt.Sprintf("Cost-model sensitivity of the QDR-vs-1GigE improvement (%%), %g GB reference", shuffleGB),
		"constant", "improvement %", ticks)
	for i, label := range []string{"x0.5", "x1.0", "x2.0"} {
		vals := make([]float64, len(results))
		for j, r := range results {
			vals[j] = r.ImprovementAt[i]
		}
		t.AddSeries(label, vals)
	}
	return t, nil
}
