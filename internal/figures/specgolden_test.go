package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrmicro/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

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
		for i, cfg := range f.Points(f.ID == "fig-workloads") {
			spec, err := sweep.Spec(cfg)
			if err != nil {
				t.Fatalf("%s point %d: %v", f.ID, i, err)
			}
			fmt.Fprintf(&b, "%s %d %s %s\n", f.ID, i, spec.Name, spec.DataDigest())
		}
	}
	checkGolden(t, "sweep_matrices.golden", b.String(),
		"sweep point matrix moved (fix the build, or bump pointKeySchema and say why)")
}

// checkGolden holds got to testdata/<name> line by line, or rewrites the file
// under -update; moved is what a difference means.
func checkGolden(t *testing.T, name, got, moved string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s, line %d:\n got: %s\nwant: %s", moved, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines now, %d in %s", len(gotLines)-1, len(wantLines)-1, path)
	}
}

// TestRenderQuickGolden pins the quick-scale rendering of every figure byte
// for byte, against a file captured before the figures were split into a plan
// and a renderer.
func TestRenderQuickGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range All() {
		out, err := f.Generate(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		b.WriteString(out.Render())
	}
	checkGolden(t, "render_quick.golden", b.String(), "figure rendering moved")
}
