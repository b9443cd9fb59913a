package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"mrmicro/internal/distrun"
)

func TestMain(m *testing.M) {
	distrun.MaybeWorker() // dist-avg's workers are this test binary, re-executed
	os.Exit(m.Run())
}

// TestSmoke runs every workload at test size, untraced and traced, and holds
// what the harness emits to the metric tables: exactly the declared names,
// every job passing its oracle, nothing left behind.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := measureWorkload(options{workload: name, seed: 1, trace: trace, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, table declares %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				v, ok := res.Metrics[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q != %q", name, trace, def.Name, v.Unit, def.Unit)
				}
				if trace == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, def.Name, v.Value)
				}
			}
		}
	}
}

// TestSecondSeed: the checks are not tuned to seed 1.
func TestSecondSeed(t *testing.T) {
	for _, name := range workloadNames {
		res, err := measureWorkload(options{workload: name, seed: 2, smoke: true})
		if err != nil || !res.Correct {
			t.Errorf("%s seed 2: %v %+v", name, err, res)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness: same workloads, same
// metrics with the same units, directions and bounds, inside the limits the
// driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	var names []string
	for _, w := range b.Workloads {
		name(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}

	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			name(g.Name)
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, w)
			}
			if g.Better != lower && g.Better != higher {
				t.Errorf("%s: better %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || math.Abs(*g.Bound-w.Bound) > 1e-12 || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, metrics.go %v (must be in (0, 0.25])", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 || len(raw) > 64<<10 {
		t.Errorf("over the driver's limits: %d per-layer, %d end-to-end, %d bytes", len(b.PerLayer), len(b.EndToEnd), len(raw))
	}
	if !seen["setup_s"] {
		t.Error("end_to_end must hold setup_s")
	}
}

// TestQuartiles pins quartiles() to Python's statistics.quantiles(n=4), which
// the driver uses for the spread.
func TestQuartiles(t *testing.T) {
	vs := []float64{7, 1, 3, 10, 2, 9, 4, 8, 6, 5}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(vs))
	}
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 values: %v %v, want 1 4", q1, q3)
	}
}
