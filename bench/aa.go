package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runChild measures one workload in a process of its own, so heap, GC state
// and peak RSS never leak from one workload into the next. The child's report
// is passed through; its last line is the result.
func runChild(o options, workload string, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.traceOut != "" && trace == 1 {
		ext := filepath.Ext(o.traceOut)
		args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"."+workload+ext)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	os.Stdout.Write(out)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("%s printed no result (%v)", workload, runErr)
	}
	return &res, nil
}

// runAll runs every workload once and prints one object holding all results.
func runAll(o options) error {
	all := map[string]*result{}
	correct := true
	for _, name := range workloadNames {
		res, err := runChild(o, name, o.trace)
		if err != nil {
			return err
		}
		all[name] = res
		correct = correct && res.Correct
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "workloads": all})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !correct {
		return errIncorrect
	}
	return nil
}

// The A/A report: two sets of runs of the same code. The benchmark is only
// usable if they agree within its own bounds, so this is the check to repeat
// after changing a size, a bound or the box. Like the driver, a set makes
// several untraced runs of a workload, each with another seed, and stands on
// their median; one traced run per set supplies the exact counts.
const aaRuns = 3

type aaReport struct {
	Date      string                 `json:"date"`
	Env       aaEnv                  `json:"env"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Runs      int                    `json:"runs_per_set"`
	OK        bool                   `json:"ok"`
	Workloads map[string]*aaWorkload `json:"workloads"`
}

type aaEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	TmpFS      string `json:"tmpdir_fs"`
}

type aaWorkload struct {
	Attempted [2]int                `json:"attempted"`
	Failed    [2]int                `json:"failed"`
	EndToEnd  map[string]aaMetric   `json:"end_to_end"`
	Exact     map[string][2]string  `json:"exact_counts"` // set A, set B; must be equal
	PerLayer  map[string][2]float64 `json:"per_layer"`
}

type aaMetric struct {
	A       float64 `json:"a"`
	B       float64 `json:"b"`
	Unit    string  `json:"unit"`
	RelDiff float64 `json:"rel_diff"` // |b-a|/a
	Bound   float64 `json:"bound"`
	OK      bool    `json:"ok"`
}

func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		commit += "-dirty"
	}
	return commit
}

func runAA(o options) error {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	rep := aaReport{
		Date: time.Now().UTC().Format("2006-01-02"),
		Env: aaEnv{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Kernel: strings.TrimSpace(string(kernel)), Commit: gitCommit(), TmpFS: fsType(os.TempDir()),
		},
		Seed: o.seed, Seconds: o.seconds, Runs: aaRuns, OK: true,
		Workloads: map[string]*aaWorkload{},
	}
	// Set A runs the workloads forward, set B backward, so a drift over the
	// session does not line up with the workload order.
	var sets [2]map[string][2]*result // workload -> {untraced (medians), traced}
	for set := range sets {
		sets[set] = map[string][2]*result{}
		for i := range workloadNames {
			name := workloadNames[i]
			if set == 1 {
				name = workloadNames[len(workloadNames)-1-i]
			}
			untraced := &result{Correct: true, Metrics: map[string]metricValue{}}
			values := map[string][]float64{}
			for run := 0; run < aaRuns; run++ {
				seeded := o
				seeded.seed += int64(run)
				res, err := runChild(seeded, name, 0)
				if err != nil {
					return err
				}
				untraced.Attempted += res.Attempted
				untraced.Failed += res.Failed
				for metric, v := range res.Metrics {
					values[metric] = append(values[metric], v.Value)
				}
			}
			for metric, vs := range values {
				untraced.Metrics[metric] = metricValue{Value: median(vs)}
			}
			traced, err := runChild(o, name, 1)
			if err != nil {
				return err
			}
			sets[set][name] = [2]*result{untraced, traced}
		}
	}

	for _, name := range workloadNames {
		a, b := sets[0][name], sets[1][name]
		w := &aaWorkload{
			Attempted: [2]int{a[0].Attempted + a[1].Attempted, b[0].Attempted + b[1].Attempted},
			Failed:    [2]int{a[0].Failed + a[1].Failed, b[0].Failed + b[1].Failed},
			EndToEnd:  map[string]aaMetric{}, Exact: map[string][2]string{}, PerLayer: map[string][2]float64{},
		}
		rep.OK = rep.OK && w.Failed == [2]int{}
		for _, def := range endToEnd {
			va, vb := a[0].Metrics[def.Name].Value, b[0].Metrics[def.Name].Value
			m := aaMetric{A: va, B: vb, Unit: def.Unit, RelDiff: math.Abs(vb-va) / va, Bound: def.Bound}
			m.OK = m.RelDiff <= m.Bound
			w.EndToEnd[def.Name] = m
			rep.OK = rep.OK && m.OK
		}
		for _, def := range perLayer {
			va, vb := a[1].Metrics[def.Name].Value, b[1].Metrics[def.Name].Value
			if def.Exact {
				w.Exact[def.Name] = [2]string{strconv.FormatFloat(va, 'f', -1, 64), strconv.FormatFloat(vb, 'f', -1, 64)}
				rep.OK = rep.OK && va == vb
			} else if va != 0 || vb != 0 {
				w.PerLayer[def.Name] = [2]float64{va, vb}
			}
		}
		rep.Workloads[name] = w
	}

	fmt.Printf("\nA/A: %d workloads, %d untraced runs per set from seed %d, %g s per run, GOMAXPROCS %d\n", len(workloadNames), aaRuns, o.seed, o.seconds, rep.Env.GOMAXPROCS)
	for _, name := range workloadNames {
		w := rep.Workloads[name]
		fmt.Printf("%s  failed %d/%d and %d/%d\n", name, w.Failed[0], w.Attempted[0], w.Failed[1], w.Attempted[1])
		for _, def := range endToEnd {
			m := w.EndToEnd[def.Name]
			verdict := "ok"
			if !m.OK {
				verdict = "BREACH"
			}
			fmt.Printf("  %-18s %14.3f %14.3f %-6s diff %5.2f%%  bound %2.0f%%  %s\n", def.Name, m.A, m.B, m.Unit, 100*m.RelDiff, 100*m.Bound, verdict)
		}
		for metric, v := range w.Exact {
			if v[0] != v[1] {
				fmt.Printf("  %-18s exact count moved: %s vs %s  BREACH\n", metric, v[0], v[1])
			}
		}
	}
	if o.aaOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.aaOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.aaOut)
	}
	if !rep.OK {
		return fmt.Errorf("A/A sets disagree beyond the bounds, an exact count moved, or a job failed")
	}
	return nil
}
