package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrmicro/internal/cluster"
	"mrmicro/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

// sweepPoints lists the configurations a figure hands its runner, without
// simulating any: the stand-in runner answers every point with a result the
// figure's assembly code can index.
func sweepPoints(t testing.TB, f Figure, quick bool) []microbench.Config {
	t.Helper()
	var points []microbench.Config
	_, err := f.Generate(Options{Quick: quick, run: func(cfgs []microbench.Config) ([]PointResult, error) {
		points = append(points, cfgs...)
		out := make([]PointResult, len(cfgs))
		for i := range out {
			out[i] = PointResult{JobSeconds: 1, ShuffleBytes: 1, MapInputBytes: 1, Samples: [][]cluster.Sample{nil}}
		}
		return out, nil
	}})
	if err != nil {
		t.Fatalf("%s: %v", f.ID, err)
	}
	return points
}

// TestSweepPointMatrixGolden pins the intermediate-data matrix of every sweep
// point of every figure, at full scale (fig-workloads at quick scale: its
// full corpus is 1 GiB), against digests captured before spec building was
// given closed-form tallies and before points of one sweep shared a matrix.
// Each figure's points go through one microbench.Sweep, as Runner.RunAll
// sends them, so a point that were handed another shape's matrix shows here.
func TestSweepPointMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale spec builds")
	}
	var b strings.Builder
	for _, f := range All() {
		sweep := new(microbench.Sweep)
		for i, cfg := range sweepPoints(t, f, f.ID == "fig-workloads") {
			spec, err := sweep.Spec(cfg)
			if err != nil {
				t.Fatalf("%s point %d: %v", f.ID, i, err)
			}
			fmt.Fprintf(&b, "%s %d %s %s\n", f.ID, i, spec.Name, spec.DataDigest())
		}
	}
	path := filepath.Join("testdata", "sweep_matrices.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d sweep points now, %d in %s", len(got)-1, len(wantLines)-1, path)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Fatalf("sweep point matrix moved (fix the build, or bump pointKeySchema and say why):\n got: %s\nwant: %s", got[i], wantLines[i])
		}
	}
}
