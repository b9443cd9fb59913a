// Package figures regenerates every figure of the paper's evaluation
// (Sect. 5 and the Sect. 6 case study) on the simulated testbeds. Each
// Figure runs the micro-benchmark suite over the figure's parameter sweep
// and reports the same series the paper plots, plus derived improvement
// percentages for direct comparison with the paper's claims.
package figures

import (
	"fmt"
	"time"

	"mrmicro/internal/apps"
	"mrmicro/internal/metrics"
	"mrmicro/internal/microbench"
	"mrmicro/internal/netsim"
	"mrmicro/internal/simcache"
)

// Options tunes a figure run.
type Options struct {
	// Quick shrinks the sweeps (for tests and -short benchmarking); the
	// full sweeps use the paper-scale shuffle sizes.
	Quick bool
	// Workers bounds how many sweep points run concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). Output is byte-identical at any setting.
	Workers int
	// Cache, when non-nil, memoizes point results across figures and runs.
	Cache *simcache.Cache
}

// runner is the sweep runner the options describe.
func (o Options) runner() Runner { return Runner{Workers: o.Workers, Cache: o.Cache} }

// Output is a regenerated figure.
type Output struct {
	ID        string
	Title     string
	Tables    []*metrics.Table
	Timelines []*metrics.Timeline
	Notes     []string
}

// Render formats the whole figure for the terminal.
func (o *Output) Render() string {
	s := fmt.Sprintf("==== %s: %s ====\n", o.ID, o.Title)
	for _, t := range o.Tables {
		s += t.Render() + "\n"
	}
	for _, tl := range o.Timelines {
		s += tl.Render() + "\n"
	}
	for _, n := range o.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Figure is one reproducible evaluation panel: what it needs simulated (a
// plan's points) and what it draws from the results (the plan's render).
type Figure struct {
	ID    string
	Title string
	plan  func(quick bool) plan
}

// plan is one figure at one scale: the sweep points, in the order render
// expects their results.
type plan struct {
	points []microbench.Config
	render func([]PointResult) *Output
}

// Points lists the figure's sweep without simulating it.
func (f Figure) Points(quick bool) []microbench.Config { return f.plan(quick).points }

// Generate runs the figure's points — the only place a figure's points are
// run — renders them and stamps identity onto the output.
func (f Figure) Generate(o Options) (*Output, error) {
	p := f.plan(o.Quick)
	results, err := o.runner().RunAll(p.points)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.ID, err)
	}
	out := p.render(results)
	out.ID, out.Title = f.ID, f.Title
	return out, nil
}

// All returns every figure in paper order.
func All() []Figure {
	return []Figure{
		{"fig2a", "MR-AVG job execution time, Cluster A (MRv1, 4 slaves, 16M/8R)", fig2(microbench.MRAvg)},
		{"fig2b", "MR-RAND job execution time, Cluster A (MRv1, 4 slaves, 16M/8R)", fig2(microbench.MRRand)},
		{"fig2c", "MR-SKEW job execution time, Cluster A (MRv1, 4 slaves, 16M/8R)", fig2(microbench.MRSkew)},
		{"fig3a", "MR-AVG on YARN, Cluster A (8 slaves, 32M/16R)", fig3(microbench.MRAvg)},
		{"fig3b", "MR-RAND on YARN, Cluster A (8 slaves, 32M/16R)", fig3(microbench.MRRand)},
		{"fig3c", "MR-SKEW on YARN, Cluster A (8 slaves, 32M/16R)", fig3(microbench.MRSkew)},
		{"fig4a", "MR-AVG with 10-byte key/values", fig4(10)},
		{"fig4b", "MR-AVG with 1 KB key/values", fig4(1024)},
		{"fig4c", "MR-AVG with 10 KB key/values", fig4(10240)},
		{"fig5", "MR-AVG with varying map/reduce task counts (10GigE vs IPoIB QDR)", fig5},
		{"fig6a", "MR-RAND with BytesWritable, up to 64 GB", fig6("BytesWritable")},
		{"fig6b", "MR-RAND with Text, up to 64 GB", fig6("Text")},
		{"fig7", "Resource utilization on one slave (MR-AVG, 16 GB)", fig7},
		{"fig8a", "IPoIB FDR vs RDMA, Cluster B, 8 slaves (MR-AVG, 32M/16R)", fig8(8)},
		{"fig8b", "IPoIB FDR vs RDMA, Cluster B, 16 slaves (MR-AVG, 32M/16R)", fig8(16)},
		{"fig-codec", "Shuffle compression and combiner across interconnects (MR-RAND, MRv1)", figCodec},
		{"fig-workloads", "Real-input workloads across interconnects (wordcount/grep/invindex, MRv1)", figWorkloads},
		{"fig-mergemem", "Reduce-side merge memory budget across interconnects (MR-AVG, MRv1)", figMergemem},
		{"fig-spill", "Map-side sort buffer and spill threshold (MR-AVG, MRv1)", figSpill},
		{"summary", "Conclusion summary: network improvement percentages", summary},
	}
}

// ByID returns the figure with the given ID.
func ByID(id string) (Figure, bool) {
	for _, f := range All() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// reference is the Fig. 2a configuration (MR-AVG on MRv1, Cluster A, 4
// slaves, 16 maps / 8 reduces, 1 KB keys and values) the other figures vary;
// interconnect and shuffle size are per point.
func reference() microbench.Config {
	return microbench.Config{
		Pattern: microbench.MRAvg,
		Engine:  microbench.EngineMRv1,
		Cluster: microbench.ClusterA,
		Slaves:  4, NumMaps: 16, NumReduces: 8,
		KeySize: 1024, ValueSize: 1024,
	}
}

// rung is one interconnect a figure sweeps: the testbed that has it, its
// netsim profile and whether the shuffle runs on the RDMA plugin.
type rung struct {
	name    string
	cluster microbench.ClusterID
	network string
	rdma    bool
}

// on puts a configuration on the rung's interconnect.
func (r rung) on(cfg microbench.Config) microbench.Config {
	cfg.Cluster, cfg.Network, cfg.RDMAShuffle = r.cluster, r.network, r.rdma
	return cfg
}

// clusterA is the paper's Cluster A interconnect set, named as the paper's
// legends name it.
var clusterA = []rung{
	{netsim.OneGigE.Name, microbench.ClusterA, netsim.OneGigE.Name, false},
	{netsim.TenGigE.Name, microbench.ClusterA, netsim.TenGigE.Name, false},
	{netsim.IPoIBQDR32.Name, microbench.ClusterA, netsim.IPoIBQDR32.Name, false},
}

// interconnectLadder is the full five-rung network set the data-plane
// figures sweep: Cluster A's three wires plus Cluster B's FDR pair, with the
// last rung on the RDMA-enhanced shuffle.
var interconnectLadder = []rung{
	{"1GigE", microbench.ClusterA, netsim.OneGigE.Name, false},
	{"10GigE", microbench.ClusterA, netsim.TenGigE.Name, false},
	{"IPoIB-QDR", microbench.ClusterA, netsim.IPoIBQDR32.Name, false},
	{"IPoIB-FDR", microbench.ClusterB, netsim.IPoIBFDR56.Name, false},
	{"RDMA-FDR", microbench.ClusterB, netsim.RDMAFDR56.Name, true},
}

// labels names each item of an axis — rungs, sizes, modes, budgets — in order.
func labels[T any](items []T, label func(T) string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = label(it)
	}
	return out
}

func rungName(r rung) string { return r.name }

func gib(n float64) int64 { return int64(n * float64(1<<30)) }

func sizeTick(gbs float64) string { return fmt.Sprintf("%gGB", gbs) }

// scale picks the quick or the paper-scale value of a sweep parameter.
func scale[T any](quick bool, small, full T) T {
	if quick {
		return small
	}
	return full
}

// grid is the shape of every figure but the timeline one: one series per
// row, one tick per column, the job time of the point at(s, t) in the cell.
type grid struct {
	title, xLabel string
	series, ticks []string
	at            func(s, t int) microbench.Config
}

// plan enumerates the grid row-major — series assembly stays in enumeration
// order however the runner schedules the points — and renders it as one
// table plus the notes derived from it.
func (g grid) plan(notes func(*metrics.Table, []PointResult) []string) plan {
	points := make([]microbench.Config, 0, len(g.series)*len(g.ticks))
	for s := range g.series {
		for t := range g.ticks {
			points = append(points, g.at(s, t))
		}
	}
	return plan{points, func(results []PointResult) *Output {
		table := metrics.NewTable(g.title, g.xLabel, "Job Execution Time (seconds)", g.ticks)
		for s, name := range g.series {
			vals := make([]float64, len(g.ticks))
			for t := range vals {
				vals[t] = results[s*len(g.ticks)+t].JobSeconds
			}
			table.AddSeries(name, vals)
		}
		return &Output{Tables: []*metrics.Table{table}, Notes: notes(table, results)}
	}}
}

// bySize is the paper's standard panel: base on each rung (one series each)
// at each shuffle size in GB (one tick each).
func bySize(title string, base microbench.Config, rungs []rung, sizes []float64) grid {
	return grid{
		title: title, xLabel: "Shuffle Data Size",
		series: labels(rungs, rungName), ticks: labels(sizes, sizeTick),
		at: func(s, t int) microbench.Config { return rungs[s].on(base).WithShuffleSize(gib(sizes[t])) },
	}
}

// improvementNotes derives "X vs the first series" percentage notes.
func improvementNotes(t *metrics.Table, _ []PointResult) []string {
	base := t.Series()[0]
	var notes []string
	for _, s := range t.Series()[1:] {
		imp := metrics.ImprovementPct(base, s)
		notes = append(notes, fmt.Sprintf("%s improves on %s by %.1f%% (mean; max %.1f%%)",
			s.Name, base.Name, metrics.Mean(imp), metrics.Max(imp)))
	}
	return notes
}

func fig2(pattern microbench.Pattern) func(bool) plan {
	return func(quick bool) plan {
		base := reference()
		base.Pattern = pattern
		return bySize(fmt.Sprintf("Fig. 2 (%s): job execution time by interconnect", pattern), base, clusterA,
			scale(quick, []float64{2, 4}, []float64{8, 16, 24, 32})).plan(improvementNotes)
	}
}

func fig3(pattern microbench.Pattern) func(bool) plan {
	return func(quick bool) plan {
		base := reference()
		base.Pattern, base.Engine = pattern, microbench.EngineYARN
		base.Slaves, base.NumMaps, base.NumReduces = 8, 32, 16
		return bySize(fmt.Sprintf("Fig. 3 (%s on YARN): job execution time by interconnect", pattern), base, clusterA,
			scale(quick, []float64{2, 4}, []float64{8, 16, 24, 32})).plan(improvementNotes)
	}
}

func fig4(kvSize int) func(bool) plan {
	return func(quick bool) plan {
		base := reference()
		base.KeySize, base.ValueSize = kvSize, kvSize
		return bySize(fmt.Sprintf("Fig. 4 (MR-AVG, %d-byte key/values)", kvSize), base, clusterA,
			scale(quick, []float64{1, 2}, []float64{4, 8, 16})).plan(improvementNotes)
	}
}

func fig5(quick bool) plan {
	sizes := scale(quick, []float64{2, 4}, []float64{8, 16, 24, 32})
	wires := clusterA[1:] // 10GigE, IPoIB QDR
	tasks := []struct{ maps, reduces int }{{4, 2}, {8, 4}}
	var series []string
	for _, w := range wires {
		for _, mr := range tasks {
			series = append(series, fmt.Sprintf("%s-%dM-%dR", w.name, mr.maps, mr.reduces))
		}
	}
	return grid{
		title:  "Fig. 5: MR-AVG with varying number of maps and reduces",
		xLabel: "Shuffle Data Size", series: series, ticks: labels(sizes, sizeTick),
		at: func(s, t int) microbench.Config {
			cfg, mr := wires[s/len(tasks)].on(reference()), tasks[s%len(tasks)]
			cfg.NumMaps, cfg.NumReduces = mr.maps, mr.reduces
			return cfg.WithShuffleSize(gib(sizes[t]))
		},
	}.plan(func(t *metrics.Table, _ []PointResult) []string {
		var notes []string
		for i, w := range wires {
			small, big := t.Series()[i*len(tasks)], t.Series()[i*len(tasks)+1]
			notes = append(notes, fmt.Sprintf("doubling tasks improves %s by %.1f%% (mean)",
				w.name, metrics.Mean(metrics.ImprovementPct(small, big))))
		}
		return notes
	})
}

func fig6(dataType string) func(bool) plan {
	return func(quick bool) plan {
		base := reference()
		base.Pattern, base.DataType = microbench.MRRand, dataType
		return bySize(fmt.Sprintf("Fig. 6 (MR-RAND, %s)", dataType), base, clusterA,
			scale(quick, []float64{2, 4}, []float64{16, 32, 48, 64})).plan(improvementNotes)
	}
}

// fig7 is the one figure that is not a grid: a utilization timeline pair per
// interconnect, from one monitored run each.
func fig7(quick bool) plan {
	base := reference()
	base.MonitorInterval = time.Second
	points := make([]microbench.Config, len(clusterA))
	for i, r := range clusterA {
		points[i] = r.on(base).WithShuffleSize(gib(scale(quick, 2.0, 16.0)))
	}
	return plan{points, func(results []PointResult) *Output {
		out := &Output{}
		for i, r := range clusterA {
			res := results[i]
			// The paper reports one slave node; sample slave 0.
			cpu := &metrics.Timeline{Title: fmt.Sprintf("Fig. 7(a) CPU utilization, %s", r.name), YLabel: "CPU %"}
			net := &metrics.Timeline{Title: fmt.Sprintf("Fig. 7(b) network throughput, %s", r.name), YLabel: "MB/s received"}
			for _, s := range res.Samples[0] {
				sec := s.At.Seconds()
				cpu.Points = append(cpu.Points, metrics.TimelinePoint{Second: sec, Value: s.CPUPct})
				net.Points = append(net.Points, metrics.TimelinePoint{Second: sec, Value: s.NetRxMBps})
			}
			out.Timelines = append(out.Timelines, cpu, net)
			out.Notes = append(out.Notes, fmt.Sprintf("%s peak network rx = %.0f MB/s (paper: 1GigE~110, 10GigE~520, QDR~950)",
				r.name, res.PeakRxMBps))
		}
		return out
	}}
}

func fig8(slaves int) func(bool) plan {
	return func(quick bool) plan {
		base := reference()
		base.Slaves, base.NumMaps, base.NumReduces = slaves, 32, 16
		fdr := []rung{
			{"IPoIB(56Gbps)", microbench.ClusterB, netsim.IPoIBFDR56.Name, false},
			{"RDMA(56Gbps)", microbench.ClusterB, netsim.RDMAFDR56.Name, true},
		}
		return bySize(fmt.Sprintf("Fig. 8: IPoIB (56Gbps) vs RDMA (56Gbps), %d slaves", slaves), base, fdr,
			scale(quick, []float64{4, 8}, []float64{16, 32, 48})).plan(improvementNotes)
	}
}

// figCodec sweeps the shuffle data-plane knobs — spill-time deflate
// compression and the first-value combiner — across the interconnect
// ladder, charting where compression stops paying. On slow wires the codec
// trades cheap CPU for halved shuffle bytes; as the network speeds up the
// wire saving shrinks while the compress/decompress CPU stays, and on the
// RDMA eager path (which moves raw bytes end to end) the codec is pure
// overhead. The combiner collapses duplicate keys before any byte is
// spilled, so it keeps paying on every interconnect.
func figCodec(quick bool) plan {
	size := scale(quick, 2.0, 16.0)
	type mode struct {
		name    string
		codec   string
		combine bool
	}
	modes := []mode{
		{"plain", "", false},
		{"deflate", "deflate", false},
		{"combine", "", true},
		{"deflate+combine", "deflate", true},
	}
	rungs := interconnectLadder
	return grid{
		title:  fmt.Sprintf("Codec x combiner across interconnects (MR-RAND, %gGB shuffle)", size),
		xLabel: "Interconnect", series: labels(modes, func(m mode) string { return m.name }), ticks: labels(rungs, rungName),
		at: func(s, t int) microbench.Config {
			cfg := rungs[t].on(reference())
			cfg.Pattern, cfg.Codec, cfg.Combine = microbench.MRRand, modes[s].codec, modes[s].combine
			return cfg.WithShuffleSize(gib(size))
		},
	}.plan(func(t *metrics.Table, _ []PointResult) []string {
		plain, defl, comb := t.Series()[0], t.Series()[1], t.Series()[2]
		var notes []string
		crossover := -1
		for i, rung := range rungs {
			pct := 100 * (plain.Values[i] - defl.Values[i]) / plain.Values[i]
			verdict := "pays"
			if pct <= 0.5 {
				verdict = "stops paying"
				if crossover < 0 {
					crossover = i
				}
			}
			notes = append(notes, fmt.Sprintf("deflate vs plain on %s: %+.1f%% (%s)", rung.name, pct, verdict))
		}
		if crossover > 0 {
			notes = append(notes, fmt.Sprintf("compression crossover: pays up to %s, stops at %s",
				rungs[crossover-1].name, rungs[crossover].name))
		}
		return append(notes, fmt.Sprintf("combiner vs plain: %.1f%% mean across all interconnects (wire-independent)",
			metrics.Mean(metrics.ImprovementPct(plain, comb))))
	})
}

// figWorkloads sweeps the three real-input applications across the
// interconnect ladder. Unlike the synthetic patterns, each workload's
// intermediate volume is a property of its computation over real bytes:
// wordcount and inverted-index re-emit (roughly or more than) every input
// byte into the shuffle, so faster wires shorten the job the way Fig. 2
// predicts; grep emits only matching fragments, so its runtime barely moves
// with the network — the shuffle/input ratio in the notes is the measured
// classification (apps.CommPattern is the a-priori one).
func figWorkloads(quick bool) plan {
	workloads := []string{apps.WordCount, apps.Grep, apps.InvIndex}
	input := fmt.Sprintf("text:seed=1402,files=%d,bytes=%d,shape=mixed", scale(quick, 2, 16), scale(quick, 256<<10, 64<<20))
	rungs := interconnectLadder
	return grid{
		title:  fmt.Sprintf("Real-input workloads across interconnects (%s)", input),
		xLabel: "Interconnect", series: workloads, ticks: labels(rungs, rungName),
		at: func(s, t int) microbench.Config {
			return rungs[t].on(microbench.Config{
				Workload:  workloads[s],
				InputSpec: input,
				SplitSize: 64 << 10,
				Engine:    microbench.EngineMRv1,
				Slaves:    4, NumReduces: 8,
			})
		},
	}.plan(func(t *metrics.Table, results []PointResult) []string {
		var notes []string
		for wi, w := range workloads {
			p := results[wi*len(rungs)] // ratio is wire-independent; read rung 0
			vals := t.Series()[wi].Values
			notes = append(notes, fmt.Sprintf(
				"%s: shuffle/input = %.2f (%s); RDMA-FDR vs 1GigE improves job time %.1f%%",
				w, float64(p.ShuffleBytes)/float64(p.MapInputBytes), apps.CommPattern(w),
				100*(vals[0]-vals[len(vals)-1])/vals[0]))
		}
		return append(notes,
			"the interconnect win scales with the shuffle/input ratio: a map-heavy workload's improvement is capped by how little it shuffles, regardless of wire speed")
	})
}

// figMergemem sweeps the reduce-side shuffle memory budget
// (mapreduce.reduce.shuffle.input.buffer.bytes) across the Cluster A
// interconnects: as the budget shrinks below the per-reducer shuffle volume,
// the copy phase spills more on-disk runs and the final merge degrades to
// multi-pass disk merging, whose read/re-write cost lands squarely in the
// reduce tail. The chart answers where that cost shows: on a slow wire the
// job is network-bound and the extra passes hide under the copy phase; on
// fast interconnects they surface as pure added time — the same
// move-the-bottleneck story the paper tells for the network, replayed for
// merge memory.
func figMergemem(quick bool) plan {
	size := scale(quick, 2.0, 16.0)
	type budget struct {
		name  string
		bytes int64
	}
	budgets := []budget{
		{"default (heap %)", 0}, // percent-derived buffer, single-pass model
		{"512MB", 512 << 20},
		{"128MB", 128 << 20},
		{"32MB", 32 << 20},
		{"8MB", 8 << 20},
	}
	return grid{
		title:  fmt.Sprintf("Reduce merge memory budget (MR-AVG, %gGB shuffle)", size),
		xLabel: "Interconnect", series: labels(budgets, func(b budget) string { return b.name }), ticks: labels(clusterA, rungName),
		at: func(s, t int) microbench.Config {
			cfg := clusterA[t].on(reference())
			cfg.ShuffleMemBudget = budgets[s].bytes
			return cfg.WithShuffleSize(gib(size))
		},
	}.plan(func(t *metrics.Table, _ []PointResult) []string {
		def, tight := t.Series()[0], t.Series()[len(budgets)-1]
		var notes []string
		for i, r := range clusterA {
			notes = append(notes, fmt.Sprintf("%s budget vs default on %s: %+.1f%% job time",
				tight.Name, r.name, 100*(tight.Values[i]-def.Values[i])/def.Values[i]))
		}
		return append(notes,
			"tighter budgets add multi-pass disk merge work; the faster the interconnect, the less of it hides under the copy phase")
	})
}

// figSpill sweeps the map-side sort buffer (io.sort.mb) against the spill
// threshold (sort.spill.percent): shrinking either multiplies the spill
// count, and each spill costs a sort, a disk write, and merge fan-in at the
// end of the map. With the background SpillThread (the default) most of that
// seal work hides under collection wherever the node has spare cores; the
// sync-spill series re-runs the tightest buffer with the overlap off, so the
// gap between the last two rows is the SpillThread's isolated win — the
// map-side twin of the shuffle-overlap story.
func figSpill(quick bool) plan {
	size := scale(quick, 1.0, 8.0)
	spillPcts := []float64{0.5, 0.67, 0.8, 0.95}
	type buffer struct {
		name string
		mb   int
		sync bool
	}
	buffers := []buffer{
		{"default (100MB)", 0, false},
		{"64MB", 64, false},
		{"16MB", 16, false},
		{"4MB", 4, false},
		{"4MB sync spill", 4, true},
	}
	return grid{
		title:  fmt.Sprintf("Map-side sort buffer vs spill threshold (MR-AVG, %gGB shuffle, %s)", size, clusterA[0].name),
		xLabel: "mapreduce.map.sort.spill.percent",
		series: labels(buffers, func(b buffer) string { return b.name }),
		ticks:  labels(spillPcts, func(pct float64) string { return fmt.Sprintf("spill %.0f%%", 100*pct) }),
		at: func(s, t int) microbench.Config {
			cfg := clusterA[0].on(reference())
			cfg.IOSortMB, cfg.SyncSpill, cfg.SpillPercent = buffers[s].mb, buffers[s].sync, spillPcts[t]
			return cfg.WithShuffleSize(gib(size))
		},
	}.plan(func(t *metrics.Table, _ []PointResult) []string {
		def, tight, syncS := t.Series()[0], t.Series()[3], t.Series()[4]
		return []string{
			fmt.Sprintf("4MB buffer vs default: %+.1f%% mean job time (more spills, deeper final merges)",
				-metrics.Mean(metrics.ImprovementPct(def, tight))),
			fmt.Sprintf("background SpillThread vs sync at 4MB: %.1f%% mean improvement (the collect/spill overlap win)",
				metrics.Mean(metrics.ImprovementPct(syncS, tight))),
			"spill boundaries are conf-deterministic: every point's output bytes are identical across overlap modes (mrcheck's spill-identity invariant)",
		}
	})
}

// summary reproduces the conclusion's headline percentages at the reference
// configuration (Fig. 2a, MR-AVG).
func summary(quick bool) plan {
	return bySize("Summary reference sweep (MR-AVG)", reference(), clusterA,
		scale(quick, []float64{2, 4}, []float64{16, 32})).plan(func(t *metrics.Table, _ []PointResult) []string {
		one, ten, qdr := t.Series()[0], t.Series()[1], t.Series()[2]
		return []string{
			fmt.Sprintf("10GigE vs 1GigE: %.1f%% (paper: ~17%%)", metrics.Mean(metrics.ImprovementPct(one, ten))),
			fmt.Sprintf("IPoIB QDR vs 1GigE: %.1f%% (paper: up to ~23-24%%)", metrics.Mean(metrics.ImprovementPct(one, qdr))),
			fmt.Sprintf("IPoIB QDR vs 10GigE: %.1f%% (paper: ~8-12%%)", metrics.Mean(metrics.ImprovementPct(ten, qdr))),
		}
	})
}
