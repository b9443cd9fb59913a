package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var wall = metricSpec{Name: "job_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25}

// TestQuartilesMatchPythonExclusive pins quartiles to Python's
// statistics.quantiles(vs, n=4), the method the benchmark's spread is
// stated in.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestJudgeAppliesThePairRule walks the verdict rule's edges: nine of ten
// wins with the medians apart by more than the parent's q1–q3 is a win, the
// same the other way a regression, eight of ten or medians inside the
// spread level, and a parent spread wider than the bound unresolved.
func TestJudgeAppliesThePairRule(t *testing.T) {
	parent := []float64{100, 101, 102, 99, 100, 98, 101, 100, 99, 100}
	shift := func(d float64, worseAt ...int) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		for _, i := range worseAt {
			out[i] = parent[i] + 5 // this pair the change loses
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		m      metricSpec
		want   string
		wins   int
	}{
		{"ten-of-ten-faster", shift(-10), wall, verdictWins, 10},
		{"nine-of-ten-faster", shift(-10, 3), wall, verdictWins, 9},
		{"eight-of-ten-faster", shift(-10, 3, 7), wall, verdictLevel, 8},
		{"faster-inside-the-spread", shift(-1), wall, verdictLevel, 10},
		{"ten-of-ten-slower", shift(10), wall, verdictRegresses, 0},
		{"identical", shift(0), wall, verdictLevel, 0},
		{"higher-is-better", shift(10), metricSpec{Name: "records_per_s", Better: "higher", Bound: 0.25}, verdictWins, 10},
		{"wide-parent-spread", shift(0), metricSpec{Name: "x", Better: "lower", Bound: 0.001}, verdictUnresolved, 0},
	} {
		j := judge(parent, tc.change, tc.m)
		if j.Verdict != tc.want || j.Wins != tc.wins || j.Pairs != len(parent) {
			t.Errorf("%s: %+v, want verdict %s with %d wins", tc.name, j, tc.want, tc.wins)
		}
	}
	// Ties count for neither side.
	if j := judge([]float64{1, 2, 3}, []float64{1, 2, 3}, metricSpec{Better: "lower"}); j.Wins != 0 || j.Losses != 0 || j.Verdict != verdictLevel {
		t.Errorf("identical runs: %+v", j)
	}
}

// TestParseResultReadsTheLastLine: the result is the last non-empty line of
// a run's output, after whatever the run printed before it.
func TestParseResultReadsTheLastLine(t *testing.T) {
	out := "jobs attempted 35  failed 0\n" +
		`{"correct":true,"attempted":35,"failed":0,"metrics":{"job_wall_ms":{"value":157.8,"unit":"ms"},"setup_s":{"value":0.4,"unit":"s"}}}` + "\n\n"
	r, err := parseResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 35 || r.Metrics["job_wall_ms"].Value != 157.8 || r.Metrics["setup_s"].Value != 0.4 {
		t.Errorf("parsed %+v", r)
	}
	for _, bad := range []string{"", "\n\n", "jobs attempted 3  failed 0\n", `{"correct":true}`, "{\"correct\":true,\"metrics\":{\"a\":{\"value\":1}}}\ntrailing words"} {
		if _, err := parseResult([]byte(bad)); err == nil {
			t.Errorf("parseResult(%q) accepted it", bad)
		}
	}
}

// TestBenchSpecAndTrajectory: BENCHMARK.json's metrics are read with their
// direction and bound, and trajectory rows append to an existing array.
func TestBenchSpecAndTrajectory(t *testing.T) {
	spec, err := parseBenchSpec([]byte(`{"run_seconds": 10, "workloads": [{"name": "avg-1k", "why": "x"}],
		"end_to_end": [{"name": "job_wall_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}`))
	if err != nil || spec.RunSeconds != 10 || spec.Workloads[0].Name != "avg-1k" || spec.EndToEnd[0] != wall {
		t.Fatalf("spec %+v err %v", spec, err)
	}
	if _, err := parseBenchSpec([]byte(`{"workloads": []}`)); err == nil {
		t.Error("a spec with no workloads was accepted")
	}
	row := trajectoryRow{Rev: "b", Parent: "a", Workload: "avg-1k", Metric: "job_wall_ms", Verdict: verdictWins,
		ChangeTrees: map[string]string{"internal": "c0ffee"}}
	first, err := appendTrajectory(nil, []trajectoryRow{row})
	if err != nil {
		t.Fatal(err)
	}
	both, err := appendTrajectory(first, []trajectoryRow{row})
	if err != nil {
		t.Fatal(err)
	}
	var rows []trajectoryRow
	if err := json.Unmarshal(both, &rows); err != nil || len(rows) != 2 || !reflect.DeepEqual(rows[1], row) {
		t.Fatalf("trajectory %s: %v", both, err)
	}
	if strings.Count(string(both), "\n") != 4 {
		t.Errorf("want one row per line:\n%s", both)
	}
	if _, err := appendTrajectory([]byte("not json"), []trajectoryRow{row}); err == nil {
		t.Error("appended to a corrupt trajectory")
	}
}

func TestParseArgsTakesFlagsAroundRevisions(t *testing.T) {
	o, err := parseArgs(strings.Fields("HEAD HEAD -workload sim-figs -pairs 3"))
	if err != nil || o.revs != [2]string{"HEAD", "HEAD"} || o.pairs != 3 || len(o.workloads) != 1 || o.workloads[0] != "sim-figs" {
		t.Fatalf("%+v %v", o, err)
	}
	o, err = parseArgs(strings.Fields("-seed 7 a -pairs 2 b"))
	if err != nil || o.revs != [2]string{"a", "b"} || o.seed != 7 || o.pairs != 2 {
		t.Fatalf("%+v %v", o, err)
	}
	for _, bad := range []string{"HEAD", "a b c", "a b -pairs 0"} {
		if _, err := parseArgs(strings.Fields(bad)); err == nil {
			t.Errorf("parseArgs(%q) accepted it", bad)
		}
	}
}

// TestDirTreesMatchTheCommit: a working tree's hashes are those of the
// commit it would make, ignored files left out, and an edit moves only the
// hash of the path it touches.
func TestDirTreesMatchTheCommit(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"internal/a.go", "cmd/b.go", "bench/c.go", "go.mod", ".gitignore"} {
		write(f, f+"\n")
	}
	write(".gitignore", ".bench_build/\n")
	for _, args := range [][]string{{"init", "-q"}, {"add", "-A"}, {"-c", "user.name=m", "-c", "user.email=m@m", "commit", "-q", "-m", "x"}} {
		if _, err := git(ctx, root, args...); err != nil {
			t.Fatal(err)
		}
	}
	head, err := git(ctx, root, "rev-parse", "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	want, err := commitTrees(ctx, root, head)
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(root, ".bench_build", "mrpair")
	write(".bench_build/mrpair/leftover", "ignored\n")
	got, err := dirTrees(ctx, root, root, work)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("clean tree: %v (err %v), commit %v", got, err, want)
	}
	write("internal/a.go", "edited\n")
	if got, err = dirTrees(ctx, root, root, work); err != nil {
		t.Fatal(err)
	}
	for _, p := range treePaths {
		if moved := got[p] != want[p]; moved != (p == "internal") {
			t.Errorf("%s: hash %s, commit's %s after editing internal/a.go", p, got[p], want[p])
		}
	}
}
