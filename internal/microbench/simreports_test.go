package microbench

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// simReportCases are flag lines that together reach every branch of the
// simulated engines' scheduling: slot and container waves, a single-slave
// cluster, exposed shuffle, codec and combiner CPU, the eager RDMA plugin,
// requeued attempts, speculation and the utilization monitor.
var simReportCases = []struct {
	flags   string
	monitor time.Duration // Config.MonitorInterval, which has no flag form
}{
	{flags: "-pattern MR-AVG -slaves 4 -pairs 2000"},
	{flags: "-pattern MR-SKEW -slaves 1 -pairs 2000"},
	{flags: "-pattern MR-AVG -pairs 2000 -slowstart 1"},
	{flags: "-pattern MR-RAND -pairs 2000 -kv 100 -codec deflate -combine"},
	{flags: "-pattern MR-AVG -pairs 2000 -maps 32 -reduces 16 -slaves 8 -cluster B -network RDMA-FDR(56Gbps) -rdma"},
	{flags: "-pattern MR-AVG -pairs 2000 -fault-map-rate 0.2 -fault-reduce-rate 0.2"},
	{flags: "-pattern MR-AVG -pairs 20000 -conf mapreduce.map.speculative=true"},
	{flags: "-pattern MR-AVG -pairs 2000 -network IPoIB-QDR(32Gbps)", monitor: 2 * time.Second},
}

// dumpSimReport renders everything a simulated run reports, times as raw
// sim.Time nanoseconds and floats at round-trip precision, so any change to
// the simulated schedule shows, however small.
func dumpSimReport(b *strings.Builder, res *Result) {
	r := res.Report
	fmt.Fprintf(b, "job %d %d map_end %d shuffle_end %d shuffle_bytes %d\n",
		r.JobStart, r.JobEnd, r.MapPhaseEnd, r.ShuffleEnd, res.ShuffleBytes)
	b.WriteString("reduce_ends")
	for _, end := range r.ReduceEnds {
		fmt.Fprintf(b, " %d", end)
	}
	b.WriteString("\n")
	snap := r.Counters.Snapshot()
	for _, g := range slices.Sorted(maps.Keys(snap)) {
		for _, n := range slices.Sorted(maps.Keys(snap[g])) {
			fmt.Fprintf(b, "counter %s %s %d\n", g, n, snap[g][n])
		}
	}
	for _, e := range r.Tasks {
		fmt.Fprintf(b, "task %s node %d %d-%d ok %t shuffle_done %d\n",
			e.ID(), e.Node, e.Start, e.End, e.Succeeded, e.ShuffleDone)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, node := range res.Samples {
		for _, s := range node {
			fmt.Fprintf(b, "sample %d %d cpu %s rx %s tx %s disk %s\n",
				i, s.At, g(s.CPUPct), g(s.NetRxMBps), g(s.NetTxMBps), g(s.DiskPct))
		}
	}
}

// TestSimReportsGolden pins the full report of both simulated engines over
// simReportCases: phase timestamps, counters, the job history of every
// attempt and the monitor's samples. The figure goldens round job times to
// a tenth of a second and run neither faults nor speculation; this one
// moves on a single simulated nanosecond.
func TestSimReportsGolden(t *testing.T) {
	var b strings.Builder
	for _, engine := range []Engine{EngineMRv1, EngineYARN} {
		for _, tc := range simReportCases {
			cfg, err := ParseRepro(append(strings.Fields(tc.flags), "-engine", string(engine)))
			if err != nil {
				t.Fatalf("%s: %v", tc.flags, err)
			}
			cfg.MonitorInterval = tc.monitor
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", engine, tc.flags, err)
			}
			fmt.Fprintf(&b, "== %s %s monitor %s\n", engine, tc.flags, tc.monitor)
			dumpSimReport(&b, res)
		}
	}
	checkGolden(t, "sim_reports.golden", b.String())
}
