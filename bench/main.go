// Command bench is the repository benchmark: six named workloads across the
// four execution planes (localrun, mrpipe, distrun, the simulated sweep
// plane), end-to-end job metrics with an oracle check on every job, and a
// separate traced run that times the calls into each layer's public
// functions. BENCHMARK.json at the repository root declares what it prints;
// README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload avg-1k --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # every workload, one process each
//	bash bench/run.sh --trace 1 --trace-out t.json --workload rand-10b
//	bash bench/run.sh --aa --aa-out bench/baseline/aa.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mrmicro/internal/distrun"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	smoke    bool
	aa       bool
	aaOut    string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	distrun.MaybeWorker() // dist-avg's workers are this binary, re-executed

	var o options
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("one of %v; empty runs each in its own process", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (microbench.Config.Seed and the HS corpus)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to run timed jobs")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here (Chrome trace-event JSON)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (tests)")
	flag.BoolVar(&o.aa, "aa", false, "run every workload twice, alternating order, and compare the two sets against the bounds")
	flag.StringVar(&o.aaOut, "aa-out", "", "write the A/A report here")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	// More runnable threads than cores turns every timing into a scheduler
	// measurement.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS %d > %d usable CPUs; refusing to measure\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	var err error
	switch {
	case o.aa:
		err = runAA(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result line is printed with failed > 0.
var errIncorrect = errors.New("some jobs failed or missed their oracle check")

// runOne measures one workload in this process and prints its result line.
func runOne(o options) error {
	res, err := measureWorkload(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("jobs attempted %d  failed %d\n%s\n", res.Attempted, res.Failed, line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measureWorkload runs set-up, the timed jobs and (traced) the staged replay
// and micro-spans of one workload under a temp root of its own.
func measureWorkload(o options) (*result, error) {
	parent := os.TempDir()
	tmp, err := os.MkdirTemp(parent, "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// Spill files, run files, disk-shuffle stores and corpora all go through
	// os.TempDir, in this process and in spawned workers.
	os.Setenv("TMPDIR", tmp)
	defer os.Setenv("TMPDIR", parent)

	e := env{seed: o.seed, smoke: o.smoke, nproc: runtime.GOMAXPROCS(0), tmp: tmp}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, e: e}
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  trace %d\n", o.workload, o.seed, e.nproc, o.trace)

	// Set-up: one sample is too noisy to gate, so an untraced run repeats it
	// — three times, or until set-up has used 4 s (sim-figs' warm-up pass
	// takes 2 to 3 s) — and reports the median. The first repeat pays the
	// cold pools and pages.
	reps := 3
	if o.trace == 1 || o.smoke {
		reps = 1
	}
	var setups []float64
	for begin := time.Now(); len(setups) < reps && time.Since(begin) < 4*time.Second; {
		runtime.GC() // a repeat must not collect what the one before it left
		start := time.Now()
		r.attempted++
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := r.leftovers(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &result{Metrics: map[string]metricValue{}}
	total := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		r.measure(total)
		res.Metrics = r.endToEnd(setups)
	} else {
		r.measure(total * 35 / 100)
		t := newTracer(median(r.walls()))
		if err := w.trace(t, total/2); err != nil {
			r.fail(fmt.Errorf("traced run: %w", err))
		}
		if err := r.leftovers(); err != nil {
			r.fail(err)
		}
		values := r.layerMedians()
		for name, v := range t.values {
			values[name] = v
		}
		for _, def := range perLayer {
			res.Metrics[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
			delete(values, def.Name)
		}
		for name := range values {
			r.fail(fmt.Errorf("per-layer metric %q is not declared in metrics.go", name))
		}
		printLayer(res.Metrics)
		r.reconcile()
		if o.traceOut != "" {
			if err := t.writeChrome(o.traceOut); err != nil {
				return nil, err
			}
			fmt.Printf("wrote %d spans to %s\n", len(t.spans), o.traceOut)
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	return res, nil
}

// runner drives one workload's closed loop and keeps what each job reported.
type runner struct {
	w         workload
	e         env
	samples   []jobSample
	attempted int
	failed    int
}

func (r *runner) fail(err error) {
	r.failed++
	fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
}

// leftovers reports anything a returned job left behind: temp files and
// directories under the harness-owned root, or live child processes.
func (r *runner) leftovers() error {
	ents, err := os.ReadDir(r.e.tmp)
	if err != nil {
		return err
	}
	if len(ents) > 0 {
		names := make([]string, len(ents))
		for i, ent := range ents {
			names[i] = ent.Name()
			os.RemoveAll(filepath.Join(r.e.tmp, ent.Name())) // one report per leak, not one per job after it
		}
		return fmt.Errorf("left behind in the temp root: %v", names)
	}
	if kids := liveChildren(); len(kids) > 0 {
		return fmt.Errorf("child processes still alive: %v", kids)
	}
	return nil
}

// measure runs jobs back to back for d, at least three of them. Allocation,
// GC and CPU deltas are read around each job, outside its timed call.
//
// Every job starts from a collected heap, as a job does whose tasks get
// processes of their own: what one job leaves behind is never collected inside
// the next job's timed call. Of the ten-seed sets measured on 2026-09-27, the
// one without this spread 7.7 % on avg-1k (0.6 GB of garbage per job) and
// 45 % on dist-avg's set-up (whose oracle allocates as much); the ones with
// it 2.7-3.6 % and 12-14 %.
func (r *runner) measure(d time.Duration) {
	deadline := time.Now().Add(d)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
		s, err := r.w.job()
		cpu, gc := cpuSeconds()-cpu0, gcCPUSeconds()-gc0
		runtime.ReadMemStats(&m1)
		r.attempted++
		if err == nil {
			err = r.leftovers()
		}
		if err != nil {
			r.fail(err)
			continue
		}
		s.layer["runtime.alloc_mb_per_job"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
		s.layer["runtime.mallocs_per_job"] = float64(m1.Mallocs - m0.Mallocs)
		s.layer["runtime.cpu_s_per_job"] = cpu
		if cpu > 0 {
			s.layer["runtime.gc_cpu_frac"] = gc / cpu
		}
		r.samples = append(r.samples, s)
	}
}

func (r *runner) walls() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = ms(s.wall)
	}
	return out
}

// endToEnd turns the timed jobs into the declared end-to-end metrics.
func (r *runner) endToEnd(setups []float64) map[string]metricValue {
	wall := summarize(r.walls())
	fmt.Printf("setup, s           %s\n", summarize(setups))
	fmt.Printf("job wall, ms       %s\n", wall)
	var records, bytes []float64
	for _, s := range r.samples {
		records = append(records, float64(s.records))
		bytes = append(bytes, float64(s.bytes))
	}
	values := map[string]float64{"setup_s": median(setups)}
	if len(r.samples) > 0 { // else every job failed, and the ratios are 0/0
		values["job_wall_ms"] = wall.Median
		values["shuffle_mb_per_s"] = median(bytes) / mib / (wall.Median / 1e3)
		values["records_per_s"] = median(records) / (wall.Median / 1e3)
	}
	out := map[string]metricValue{}
	for _, def := range endToEnd {
		out[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
		fmt.Printf("%-18s %.3f %s\n", def.Name, values[def.Name], def.Unit)
	}
	return out
}

// layerMedians is the median over the timed jobs of every per-layer value a
// job's public result exposes, plus the process-wide runtime readings.
func (r *runner) layerMedians() map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range r.samples {
		for name, v := range s.layer {
			byName[name] = append(byName[name], v)
		}
	}
	out := map[string]float64{
		"runtime.peak_rss_mb": peakRSSMiB(),
	}
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// reconcile prints how much of each job's wall the breakdown its public result
// carries accounts for (median over jobs): the localrun phase split, and the
// HS pipeline's stage walls.
func (r *runner) reconcile() {
	for _, parts := range [][]string{
		{"localrun.map_phase_ms", "localrun.reduce_tail_ms"},
		{"mrpipe.hsgen_ms", "mrpipe.hssort_ms", "mrpipe.hsvalidate_ms"},
	} {
		var shares []float64
		for _, s := range r.samples {
			if _, ok := s.layer[parts[0]]; !ok {
				continue
			}
			var total float64
			for _, name := range parts {
				total += s.layer[name]
			}
			shares = append(shares, total/ms(s.wall))
		}
		if len(shares) > 0 {
			fmt.Printf("reconcile: %v sum to %.1f%% of the job wall (median of %d jobs)\n", parts, 100*median(shares), len(shares))
		}
	}
}

func printLayer(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := m[name]; v.Value != 0 {
			fmt.Printf("%-34s %16.3f %s\n", name, v.Value, v.Unit)
		}
	}
}
