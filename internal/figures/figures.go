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

	// run, when non-nil, stands in for the runner: tests use it to list a
	// figure's sweep points without simulating them.
	run func([]microbench.Config) ([]PointResult, error)
}

// runAll executes sweep points through the options' runner.
func (o Options) runAll(cfgs []microbench.Config) ([]PointResult, error) {
	if o.run != nil {
		return o.run(cfgs)
	}
	return Runner{Workers: o.Workers, Cache: o.Cache}.RunAll(cfgs)
}

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

// Figure is one reproducible evaluation panel.
type Figure struct {
	ID    string
	Title string
	Run   func(Options) (*Output, error)
}

// Generate runs the figure and stamps identity onto the output.
func (f Figure) Generate(o Options) (*Output, error) {
	out, err := f.Run(o)
	if err != nil {
		return nil, err
	}
	out.ID, out.Title = f.ID, f.Title
	return out, nil
}

// All returns every figure in paper order.
func All() []Figure {
	return []Figure{
		{"fig2a", "MR-AVG job execution time, Cluster A (MRv1, 4 slaves, 16M/8R)", runFig2(microbench.MRAvg)},
		{"fig2b", "MR-RAND job execution time, Cluster A (MRv1, 4 slaves, 16M/8R)", runFig2(microbench.MRRand)},
		{"fig2c", "MR-SKEW job execution time, Cluster A (MRv1, 4 slaves, 16M/8R)", runFig2(microbench.MRSkew)},
		{"fig3a", "MR-AVG on YARN, Cluster A (8 slaves, 32M/16R)", runFig3(microbench.MRAvg)},
		{"fig3b", "MR-RAND on YARN, Cluster A (8 slaves, 32M/16R)", runFig3(microbench.MRRand)},
		{"fig3c", "MR-SKEW on YARN, Cluster A (8 slaves, 32M/16R)", runFig3(microbench.MRSkew)},
		{"fig4a", "MR-AVG with 10-byte key/values", runFig4(10)},
		{"fig4b", "MR-AVG with 1 KB key/values", runFig4(1024)},
		{"fig4c", "MR-AVG with 10 KB key/values", runFig4(10240)},
		{"fig5", "MR-AVG with varying map/reduce task counts (10GigE vs IPoIB QDR)", runFig5},
		{"fig6a", "MR-RAND with BytesWritable, up to 64 GB", runFig6("BytesWritable")},
		{"fig6b", "MR-RAND with Text, up to 64 GB", runFig6("Text")},
		{"fig7", "Resource utilization on one slave (MR-AVG, 16 GB)", runFig7},
		{"fig8a", "IPoIB FDR vs RDMA, Cluster B, 8 slaves (MR-AVG, 32M/16R)", runFig8(8)},
		{"fig8b", "IPoIB FDR vs RDMA, Cluster B, 16 slaves (MR-AVG, 32M/16R)", runFig8(16)},
		{"fig-codec", "Shuffle compression and combiner across interconnects (MR-RAND, MRv1)", runFigCodec},
		{"fig-workloads", "Real-input workloads across interconnects (wordcount/grep/invindex, MRv1)", runFigWorkloads},
		{"fig-mergemem", "Reduce-side merge memory budget across interconnects (MR-AVG, MRv1)", runFigMergemem},
		{"fig-spill", "Map-side sort buffer and spill threshold (MR-AVG, MRv1)", runFigSpill},
		{"summary", "Conclusion summary: network improvement percentages", runSummary},
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

func gib(n float64) int64 { return int64(n * float64(1<<30)) }

func sizeTicks(sizes []float64) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%gGB", s)
	}
	return out
}

// clusterANetworks is the paper's Cluster A interconnect set.
var clusterANetworks = []netsim.Profile{netsim.OneGigE, netsim.TenGigE, netsim.IPoIBQDR32}

// sweep runs one configuration template across sizes × networks and builds
// the figure table. The grid is enumerated up front and executed through the
// runner, so points run concurrently while series assembly stays in
// enumeration order.
func sweep(o Options, title string, base microbench.Config, sizes []float64, networks []netsim.Profile) (*metrics.Table, error) {
	cfgs := make([]microbench.Config, 0, len(networks)*len(sizes))
	for _, prof := range networks {
		for _, gbs := range sizes {
			cfg := base
			cfg.Network = prof.Name
			cfgs = append(cfgs, cfg.WithShuffleSize(gib(gbs)))
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", title, err)
	}
	table := metrics.NewTable(title, "Shuffle Data Size", "Job Execution Time (seconds)", sizeTicks(sizes))
	for pi, prof := range networks {
		vals := make([]float64, len(sizes))
		for i := range sizes {
			vals[i] = results[pi*len(sizes)+i].JobSeconds
		}
		table.AddSeries(prof.Name, vals)
	}
	return table, nil
}

// improvementNotes derives "X vs baseline" percentage notes from a table.
func improvementNotes(t *metrics.Table, baseline string) []string {
	base, ok := t.SeriesByName(baseline)
	if !ok {
		return nil
	}
	var notes []string
	for _, s := range t.Series() {
		if s.Name == baseline {
			continue
		}
		imp := metrics.ImprovementPct(base, s)
		notes = append(notes, fmt.Sprintf("%s improves on %s by %.1f%% (mean; max %.1f%%)",
			s.Name, baseline, metrics.Mean(imp), metrics.Max(imp)))
	}
	return notes
}

func runFig2(pattern microbench.Pattern) func(Options) (*Output, error) {
	return func(o Options) (*Output, error) {
		sizes := []float64{8, 16, 24, 32}
		if o.Quick {
			sizes = []float64{2, 4}
		}
		base := microbench.Config{
			Pattern: pattern,
			Engine:  microbench.EngineMRv1,
			Cluster: microbench.ClusterA,
			Slaves:  4, NumMaps: 16, NumReduces: 8,
			KeySize: 1024, ValueSize: 1024,
		}
		t, err := sweep(o, fmt.Sprintf("Fig. 2 (%s): job execution time by interconnect", pattern), base, sizes, clusterANetworks)
		if err != nil {
			return nil, err
		}
		return &Output{Tables: []*metrics.Table{t}, Notes: improvementNotes(t, netsim.OneGigE.Name)}, nil
	}
}

func runFig3(pattern microbench.Pattern) func(Options) (*Output, error) {
	return func(o Options) (*Output, error) {
		sizes := []float64{8, 16, 24, 32}
		if o.Quick {
			sizes = []float64{2, 4}
		}
		base := microbench.Config{
			Pattern: pattern,
			Engine:  microbench.EngineYARN,
			Cluster: microbench.ClusterA,
			Slaves:  8, NumMaps: 32, NumReduces: 16,
			KeySize: 1024, ValueSize: 1024,
		}
		t, err := sweep(o, fmt.Sprintf("Fig. 3 (%s on YARN): job execution time by interconnect", pattern), base, sizes, clusterANetworks)
		if err != nil {
			return nil, err
		}
		return &Output{Tables: []*metrics.Table{t}, Notes: improvementNotes(t, netsim.OneGigE.Name)}, nil
	}
}

func runFig4(kvSize int) func(Options) (*Output, error) {
	return func(o Options) (*Output, error) {
		sizes := []float64{4, 8, 16}
		if o.Quick {
			sizes = []float64{1, 2}
		}
		base := microbench.Config{
			Pattern: microbench.MRAvg,
			Engine:  microbench.EngineMRv1,
			Cluster: microbench.ClusterA,
			Slaves:  4, NumMaps: 16, NumReduces: 8,
			KeySize: kvSize, ValueSize: kvSize,
		}
		t, err := sweep(o, fmt.Sprintf("Fig. 4 (MR-AVG, %d-byte key/values)", kvSize), base, sizes, clusterANetworks)
		if err != nil {
			return nil, err
		}
		return &Output{Tables: []*metrics.Table{t}, Notes: improvementNotes(t, netsim.OneGigE.Name)}, nil
	}
}

func runFig5(o Options) (*Output, error) {
	sizes := []float64{8, 16, 24, 32}
	if o.Quick {
		sizes = []float64{2, 4}
	}
	profiles := []netsim.Profile{netsim.TenGigE, netsim.IPoIBQDR32}
	taskCounts := []struct{ maps, reduces int }{{4, 2}, {8, 4}}
	var cfgs []microbench.Config
	for _, prof := range profiles {
		for _, mr := range taskCounts {
			for _, gbs := range sizes {
				cfgs = append(cfgs, microbench.Config{
					Pattern: microbench.MRAvg,
					Engine:  microbench.EngineMRv1,
					Cluster: microbench.ClusterA,
					Slaves:  4, NumMaps: mr.maps, NumReduces: mr.reduces,
					KeySize: 1024, ValueSize: 1024,
					Network: prof.Name,
				}.WithShuffleSize(gib(gbs)))
			}
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("Fig. 5: MR-AVG with varying number of maps and reduces",
		"Shuffle Data Size", "Job Execution Time (seconds)", sizeTicks(sizes))
	k := 0
	for _, prof := range profiles {
		for _, mr := range taskCounts {
			vals := make([]float64, len(sizes))
			for i := range sizes {
				vals[i] = results[k].JobSeconds
				k++
			}
			table.AddSeries(fmt.Sprintf("%s-%dM-%dR", prof.Name, mr.maps, mr.reduces), vals)
		}
	}
	var notes []string
	for _, prof := range profiles {
		small, _ := table.SeriesByName(fmt.Sprintf("%s-4M-2R", prof.Name))
		big, _ := table.SeriesByName(fmt.Sprintf("%s-8M-4R", prof.Name))
		imp := metrics.ImprovementPct(small, big)
		notes = append(notes, fmt.Sprintf("doubling tasks improves %s by %.1f%% (mean)", prof.Name, metrics.Mean(imp)))
	}
	return &Output{Tables: []*metrics.Table{table}, Notes: notes}, nil
}

func runFig6(dataType string) func(Options) (*Output, error) {
	return func(o Options) (*Output, error) {
		sizes := []float64{16, 32, 48, 64}
		if o.Quick {
			sizes = []float64{2, 4}
		}
		base := microbench.Config{
			Pattern: microbench.MRRand,
			Engine:  microbench.EngineMRv1,
			Cluster: microbench.ClusterA,
			Slaves:  4, NumMaps: 16, NumReduces: 8,
			KeySize: 1024, ValueSize: 1024,
			DataType: dataType,
		}
		t, err := sweep(o, fmt.Sprintf("Fig. 6 (MR-RAND, %s)", dataType), base, sizes, clusterANetworks)
		if err != nil {
			return nil, err
		}
		return &Output{Tables: []*metrics.Table{t}, Notes: improvementNotes(t, netsim.OneGigE.Name)}, nil
	}
}

func runFig7(o Options) (*Output, error) {
	size := 16.0
	if o.Quick {
		size = 2.0
	}
	cfgs := make([]microbench.Config, len(clusterANetworks))
	for i, prof := range clusterANetworks {
		cfgs[i] = microbench.Config{
			Pattern: microbench.MRAvg,
			Engine:  microbench.EngineMRv1,
			Cluster: microbench.ClusterA,
			Slaves:  4, NumMaps: 16, NumReduces: 8,
			KeySize: 1024, ValueSize: 1024,
			Network:         prof.Name,
			MonitorInterval: time.Second,
		}.WithShuffleSize(gib(size))
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := &Output{}
	for i, prof := range clusterANetworks {
		res := results[i]
		// The paper reports one slave node; sample slave 0.
		cpu := &metrics.Timeline{Title: fmt.Sprintf("Fig. 7(a) CPU utilization, %s", prof.Name), YLabel: "CPU %"}
		net := &metrics.Timeline{Title: fmt.Sprintf("Fig. 7(b) network throughput, %s", prof.Name), YLabel: "MB/s received"}
		for _, s := range res.Samples[0] {
			sec := s.At.Seconds()
			cpu.Points = append(cpu.Points, metrics.TimelinePoint{Second: sec, Value: s.CPUPct})
			net.Points = append(net.Points, metrics.TimelinePoint{Second: sec, Value: s.NetRxMBps})
		}
		out.Timelines = append(out.Timelines, cpu, net)
		out.Notes = append(out.Notes, fmt.Sprintf("%s peak network rx = %.0f MB/s (paper: 1GigE~110, 10GigE~520, QDR~950)",
			prof.Name, res.PeakRxMBps))
	}
	return out, nil
}

func runFig8(slaves int) func(Options) (*Output, error) {
	return func(o Options) (*Output, error) {
		sizes := []float64{16, 32, 48}
		if o.Quick {
			sizes = []float64{4, 8}
		}
		modes := []struct {
			name    string
			network string
			rdma    bool
		}{
			{"IPoIB(56Gbps)", netsim.IPoIBFDR56.Name, false},
			{"RDMA(56Gbps)", netsim.RDMAFDR56.Name, true},
		}
		var cfgs []microbench.Config
		for _, mode := range modes {
			for _, gbs := range sizes {
				cfgs = append(cfgs, microbench.Config{
					Pattern: microbench.MRAvg,
					Engine:  microbench.EngineMRv1,
					Cluster: microbench.ClusterB,
					Slaves:  slaves, NumMaps: 32, NumReduces: 16,
					KeySize: 1024, ValueSize: 1024,
					Network:     mode.network,
					RDMAShuffle: mode.rdma,
				}.WithShuffleSize(gib(gbs)))
			}
		}
		results, err := o.runAll(cfgs)
		if err != nil {
			return nil, err
		}
		table := metrics.NewTable(
			fmt.Sprintf("Fig. 8: IPoIB (56Gbps) vs RDMA (56Gbps), %d slaves", slaves),
			"Shuffle Data Size", "Job Execution Time (seconds)", sizeTicks(sizes))
		for mi, mode := range modes {
			vals := make([]float64, len(sizes))
			for i := range sizes {
				vals[i] = results[mi*len(sizes)+i].JobSeconds
			}
			table.AddSeries(mode.name, vals)
		}
		return &Output{
			Tables: []*metrics.Table{table},
			Notes:  improvementNotes(table, "IPoIB(56Gbps)"),
		}, nil
	}
}

// runFigCodec sweeps the shuffle data-plane knobs — spill-time deflate
// compression and the first-value combiner — across the interconnect
// ladder, charting where compression stops paying. On slow wires the codec
// trades cheap CPU for halved shuffle bytes; as the network speeds up the
// wire saving shrinks while the compress/decompress CPU stays, and on the
// RDMA eager path (which moves raw bytes end to end) the codec is pure
// overhead. The combiner collapses duplicate keys before any byte is
// spilled, so it keeps paying on every interconnect.
func runFigCodec(o Options) (*Output, error) {
	size := 16.0
	if o.Quick {
		size = 2.0
	}
	rungs := []struct {
		name    string
		cluster microbench.ClusterID
		network string
		rdma    bool
	}{
		{"1GigE", microbench.ClusterA, netsim.OneGigE.Name, false},
		{"10GigE", microbench.ClusterA, netsim.TenGigE.Name, false},
		{"IPoIB-QDR", microbench.ClusterA, netsim.IPoIBQDR32.Name, false},
		{"IPoIB-FDR", microbench.ClusterB, netsim.IPoIBFDR56.Name, false},
		{"RDMA-FDR", microbench.ClusterB, netsim.RDMAFDR56.Name, true},
	}
	modes := []struct {
		name    string
		codec   string
		combine bool
	}{
		{"plain", "", false},
		{"deflate", "deflate", false},
		{"combine", "", true},
		{"deflate+combine", "deflate", true},
	}
	var cfgs []microbench.Config
	for _, mode := range modes {
		for _, rung := range rungs {
			cfgs = append(cfgs, microbench.Config{
				Pattern: microbench.MRRand,
				Engine:  microbench.EngineMRv1,
				Cluster: rung.cluster,
				Slaves:  4, NumMaps: 16, NumReduces: 8,
				KeySize: 1024, ValueSize: 1024,
				Network:     rung.network,
				RDMAShuffle: rung.rdma,
				Codec:       mode.codec,
				Combine:     mode.combine,
			}.WithShuffleSize(gib(size)))
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	ticks := make([]string, len(rungs))
	for i, rung := range rungs {
		ticks[i] = rung.name
	}
	table := metrics.NewTable(
		fmt.Sprintf("Codec x combiner across interconnects (MR-RAND, %gGB shuffle)", size),
		"Interconnect", "Job Execution Time (seconds)", ticks)
	for mi, mode := range modes {
		vals := make([]float64, len(rungs))
		for i := range rungs {
			vals[i] = results[mi*len(rungs)+i].JobSeconds
		}
		table.AddSeries(mode.name, vals)
	}
	plain, _ := table.SeriesByName("plain")
	defl, _ := table.SeriesByName("deflate")
	comb, _ := table.SeriesByName("combine")
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
	notes = append(notes, fmt.Sprintf("combiner vs plain: %.1f%% mean across all interconnects (wire-independent)",
		metrics.Mean(metrics.ImprovementPct(plain, comb))))
	return &Output{Tables: []*metrics.Table{table}, Notes: notes}, nil
}

// interconnectLadder is the full five-rung network set the data-plane
// figures sweep: Cluster A's three wires plus Cluster B's FDR pair, with the
// last rung on the RDMA-enhanced shuffle.
var interconnectLadder = []struct {
	name    string
	cluster microbench.ClusterID
	network string
	rdma    bool
}{
	{"1GigE", microbench.ClusterA, netsim.OneGigE.Name, false},
	{"10GigE", microbench.ClusterA, netsim.TenGigE.Name, false},
	{"IPoIB-QDR", microbench.ClusterA, netsim.IPoIBQDR32.Name, false},
	{"IPoIB-FDR", microbench.ClusterB, netsim.IPoIBFDR56.Name, false},
	{"RDMA-FDR", microbench.ClusterB, netsim.RDMAFDR56.Name, true},
}

// runFigWorkloads sweeps the three real-input applications across the
// interconnect ladder. Unlike the synthetic patterns, each workload's
// intermediate volume is a property of its computation over real bytes:
// wordcount and inverted-index re-emit (roughly or more than) every input
// byte into the shuffle, so faster wires shorten the job the way Fig. 2
// predicts; grep emits only matching fragments, so its runtime barely moves
// with the network — the shuffle/input ratio in the notes is the measured
// classification (apps.CommPattern is the a-priori one).
func runFigWorkloads(o Options) (*Output, error) {
	bytes := int64(64 << 20)
	files := 16
	if o.Quick {
		bytes = 256 << 10
		files = 2
	}
	workloads := []string{apps.WordCount, apps.Grep, apps.InvIndex}
	input := fmt.Sprintf("text:seed=1402,files=%d,bytes=%d,shape=mixed", files, bytes)
	var cfgs []microbench.Config
	for _, w := range workloads {
		for _, rung := range interconnectLadder {
			cfgs = append(cfgs, microbench.Config{
				Workload:  w,
				InputSpec: input,
				SplitSize: 64 << 10,
				Engine:    microbench.EngineMRv1,
				Cluster:   rung.cluster,
				Slaves:    4, NumReduces: 8,
				Network:     rung.network,
				RDMAShuffle: rung.rdma,
			})
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	ticks := make([]string, len(interconnectLadder))
	for i, rung := range interconnectLadder {
		ticks[i] = rung.name
	}
	table := metrics.NewTable(
		fmt.Sprintf("Real-input workloads across interconnects (%s)", input),
		"Interconnect", "Job Execution Time (seconds)", ticks)
	var notes []string
	for wi, w := range workloads {
		vals := make([]float64, len(interconnectLadder))
		for i := range interconnectLadder {
			vals[i] = results[wi*len(interconnectLadder)+i].JobSeconds
		}
		table.AddSeries(w, vals)

		p := results[wi*len(interconnectLadder)] // ratio is wire-independent; read rung 0
		ratio := float64(p.ShuffleBytes) / float64(p.MapInputBytes)
		best := 100 * (vals[0] - vals[len(vals)-1]) / vals[0]
		notes = append(notes, fmt.Sprintf(
			"%s: shuffle/input = %.2f (%s); RDMA-FDR vs 1GigE improves job time %.1f%%",
			w, ratio, apps.CommPattern(w), best))
	}
	notes = append(notes,
		"the interconnect win scales with the shuffle/input ratio: a map-heavy workload's improvement is capped by how little it shuffles, regardless of wire speed")
	return &Output{Tables: []*metrics.Table{table}, Notes: notes}, nil
}

// runFigMergemem sweeps the reduce-side shuffle memory budget
// (mapreduce.reduce.shuffle.input.buffer.bytes) across the Cluster A
// interconnects: as the budget shrinks below the per-reducer shuffle volume,
// the copy phase spills more on-disk runs and the final merge degrades to
// multi-pass disk merging, whose read/re-write cost lands squarely in the
// reduce tail. The chart answers where that cost shows: on a slow wire the
// job is network-bound and the extra passes hide under the copy phase; on
// fast interconnects they surface as pure added time — the same
// move-the-bottleneck story the paper tells for the network, replayed for
// merge memory.
func runFigMergemem(o Options) (*Output, error) {
	size := 16.0
	if o.Quick {
		size = 2.0
	}
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"default (heap %)", 0}, // percent-derived buffer, single-pass model
		{"512MB", 512 << 20},
		{"128MB", 128 << 20},
		{"32MB", 32 << 20},
		{"8MB", 8 << 20},
	}
	var cfgs []microbench.Config
	for _, b := range budgets {
		for _, prof := range clusterANetworks {
			cfgs = append(cfgs, microbench.Config{
				Pattern: microbench.MRAvg,
				Engine:  microbench.EngineMRv1,
				Cluster: microbench.ClusterA,
				Slaves:  4, NumMaps: 16, NumReduces: 8,
				KeySize: 1024, ValueSize: 1024,
				Network:          prof.Name,
				ShuffleMemBudget: b.bytes,
			}.WithShuffleSize(gib(size)))
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	ticks := make([]string, len(clusterANetworks))
	for i, prof := range clusterANetworks {
		ticks[i] = prof.Name
	}
	table := metrics.NewTable(
		fmt.Sprintf("Reduce merge memory budget (MR-AVG, %gGB shuffle)", size),
		"Interconnect", "Job Execution Time (seconds)", ticks)
	for bi, b := range budgets {
		vals := make([]float64, len(clusterANetworks))
		for i := range clusterANetworks {
			vals[i] = results[bi*len(clusterANetworks)+i].JobSeconds
		}
		table.AddSeries(b.name, vals)
	}
	def, _ := table.SeriesByName(budgets[0].name)
	tight, _ := table.SeriesByName(budgets[len(budgets)-1].name)
	var notes []string
	for i, prof := range clusterANetworks {
		pct := 100 * (tight.Values[i] - def.Values[i]) / def.Values[i]
		notes = append(notes, fmt.Sprintf("%s budget vs default on %s: %+.1f%% job time",
			budgets[len(budgets)-1].name, prof.Name, pct))
	}
	notes = append(notes,
		"tighter budgets add multi-pass disk merge work; the faster the interconnect, the less of it hides under the copy phase")
	return &Output{Tables: []*metrics.Table{table}, Notes: notes}, nil
}

// runFigSpill sweeps the map-side sort buffer (io.sort.mb) against the spill
// threshold (sort.spill.percent): shrinking either multiplies the spill
// count, and each spill costs a sort, a disk write, and merge fan-in at the
// end of the map. With the background SpillThread (the default) most of that
// seal work hides under collection wherever the node has spare cores; the
// sync-spill series re-runs the tightest buffer with the overlap off, so the
// gap between the last two rows is the SpillThread's isolated win — the
// map-side twin of the shuffle-overlap story.
func runFigSpill(o Options) (*Output, error) {
	size := 8.0
	if o.Quick {
		size = 1.0
	}
	spillPcts := []float64{0.5, 0.67, 0.8, 0.95}
	buffers := []struct {
		name string
		mb   int
		sync bool
	}{
		{"default (100MB)", 0, false},
		{"64MB", 64, false},
		{"16MB", 16, false},
		{"4MB", 4, false},
		{"4MB sync spill", 4, true},
	}
	var cfgs []microbench.Config
	for _, b := range buffers {
		for _, pct := range spillPcts {
			cfgs = append(cfgs, microbench.Config{
				Pattern: microbench.MRAvg,
				Engine:  microbench.EngineMRv1,
				Cluster: microbench.ClusterA,
				Slaves:  4, NumMaps: 16, NumReduces: 8,
				KeySize: 1024, ValueSize: 1024,
				Network:      netsim.OneGigE.Name,
				IOSortMB:     b.mb,
				SpillPercent: pct,
				SyncSpill:    b.sync,
			}.WithShuffleSize(gib(size)))
		}
	}
	results, err := o.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	ticks := make([]string, len(spillPcts))
	for i, pct := range spillPcts {
		ticks[i] = fmt.Sprintf("spill %.0f%%", 100*pct)
	}
	table := metrics.NewTable(
		fmt.Sprintf("Map-side sort buffer vs spill threshold (MR-AVG, %gGB shuffle, %s)", size, netsim.OneGigE.Name),
		"mapreduce.map.sort.spill.percent", "Job Execution Time (seconds)", ticks)
	for bi, b := range buffers {
		vals := make([]float64, len(spillPcts))
		for i := range spillPcts {
			vals[i] = results[bi*len(spillPcts)+i].JobSeconds
		}
		table.AddSeries(b.name, vals)
	}
	def, _ := table.SeriesByName(buffers[0].name)
	tight, _ := table.SeriesByName("4MB")
	syncS, _ := table.SeriesByName("4MB sync spill")
	notes := []string{
		fmt.Sprintf("4MB buffer vs default: %+.1f%% mean job time (more spills, deeper final merges)",
			-metrics.Mean(metrics.ImprovementPct(def, tight))),
		fmt.Sprintf("background SpillThread vs sync at 4MB: %.1f%% mean improvement (the collect/spill overlap win)",
			metrics.Mean(metrics.ImprovementPct(syncS, tight))),
		"spill boundaries are conf-deterministic: every point's output bytes are identical across overlap modes (mrcheck's spill-identity invariant)",
	}
	return &Output{Tables: []*metrics.Table{table}, Notes: notes}, nil
}

// runSummary reproduces the conclusion's headline percentages at the
// reference configuration (Fig. 2a, MR-AVG).
func runSummary(o Options) (*Output, error) {
	sizes := []float64{16, 32}
	if o.Quick {
		sizes = []float64{2, 4}
	}
	base := microbench.Config{
		Pattern: microbench.MRAvg,
		Engine:  microbench.EngineMRv1,
		Cluster: microbench.ClusterA,
		Slaves:  4, NumMaps: 16, NumReduces: 8,
		KeySize: 1024, ValueSize: 1024,
	}
	t, err := sweep(o, "Summary reference sweep (MR-AVG)", base, sizes, clusterANetworks)
	if err != nil {
		return nil, err
	}
	one, _ := t.SeriesByName(netsim.OneGigE.Name)
	ten, _ := t.SeriesByName(netsim.TenGigE.Name)
	qdr, _ := t.SeriesByName(netsim.IPoIBQDR32.Name)
	notes := []string{
		fmt.Sprintf("10GigE vs 1GigE: %.1f%% (paper: ~17%%)", metrics.Mean(metrics.ImprovementPct(one, ten))),
		fmt.Sprintf("IPoIB QDR vs 1GigE: %.1f%% (paper: up to ~23-24%%)", metrics.Mean(metrics.ImprovementPct(one, qdr))),
		fmt.Sprintf("IPoIB QDR vs 10GigE: %.1f%% (paper: ~8-12%%)", metrics.Mean(metrics.ImprovementPct(ten, qdr))),
	}
	return &Output{Tables: []*metrics.Table{t}, Notes: notes}, nil
}
