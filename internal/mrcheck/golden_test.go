package mrcheck

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mrmicro/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

// goldenConfigs is the number of generated configurations (faults and
// workloads on) the golden and round-trip tests walk.
const (
	goldenConfigs = 500
	goldenSeed    = 18
)

// goldenDump renders what the engines, the sweep cache and a repro line see
// of one configuration: the normalized Config as JSON (the encoding simcache
// keys hash) and the job conf it materializes, sorted by key. The normalize
// line is left out when the raw config carries ExtraConf: an override naming
// a key a knob owns is folded into that knob's field, so only the conf it
// produces is pinned there.
func goldenDump(t *testing.T, name string, cfg microbench.Config) string {
	t.Helper()
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	if len(cfg.ExtraConf) == 0 {
		js, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "normalize %s\n", js)
	}
	conf := n.HadoopConf()
	for _, k := range conf.Keys() {
		fmt.Fprintf(&b, "  %s=%s\n", k, conf.Get(k, ""))
	}
	return b.String()
}

// checkGolden compares got against the named file under testdata/, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
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
	if got != string(want) {
		t.Errorf("%s differs from the current code (rerun with -update only if the change is intended)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestCorpusGolden pins Normalize and HadoopConf for every corpus repro
// against the values captured before the knob table replaced the per-knob
// ladders in microbench.
func TestCorpusGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.repro"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	var b strings.Builder
	for _, f := range files {
		cfg, err := LoadRepro(f)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(goldenDump(t, filepath.Base(f), cfg))
	}
	checkGolden(t, "corpus.golden", b.String())
}

// TestGeneratedGolden pins the same dump for 500 generated configurations,
// one digest line each (the dumps run to a third of a megabyte). A mismatch
// prints the current dump of the first config that moved.
func TestGeneratedGolden(t *testing.T) {
	var b strings.Builder
	dumps := make([]string, goldenConfigs)
	for i := range dumps {
		dumps[i] = goldenDump(t, fmt.Sprintf("gen seed=%d i=%d", goldenSeed, i), Generate(goldenSeed, i, GenOptions{Faults: true}))
		sum := sha256.Sum256([]byte(dumps[i]))
		fmt.Fprintf(&b, "%d %x\n", i, sum[:8])
	}
	if !*update {
		want, err := os.ReadFile(filepath.Join("testdata", "generated.golden"))
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Split(b.String(), "\n")
		for i, line := range strings.Split(string(want), "\n") {
			if i < len(got) && got[i] != line {
				t.Fatalf("generated config %d normalizes or materializes differently than the golden capture; it now dumps as\n%s", i, dumps[i])
			}
		}
	}
	checkGolden(t, "generated.golden", b.String())
}

// TestReproRoundTripGenerated is the round-trip property over the same 500
// configurations: whatever the generator can draw, the flag form parses back
// to the identical normalized config.
func TestReproRoundTripGenerated(t *testing.T) {
	for i := 0; i < goldenConfigs; i++ {
		cfg := Generate(goldenSeed, i, GenOptions{Faults: true})
		want, err := cfg.Normalize()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		parsed, err := microbench.ParseRepro(cfg.ReproFlags())
		if err != nil {
			t.Fatalf("config %d: ParseRepro(%q): %v", i, cfg.ReproFlags(), err)
		}
		got, err := parsed.Normalize()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d does not round-trip\n args: %q\n got:  %+v\n want: %+v", i, cfg.ReproFlags(), got, want)
		}
	}
}

// TestSpecMatrixGolden pins BuildSpec's intermediate-data matrix for the same
// 500 configurations against digests captured while partitionCounts still
// drew every record through Partition: the closed-form tallies must
// reproduce each matrix byte for byte.
func TestSpecMatrixGolden(t *testing.T) {
	var b strings.Builder
	for i := 0; i < goldenConfigs; i++ {
		spec, err := microbench.BuildSpec(Generate(goldenSeed, i, GenOptions{Faults: true}))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		fmt.Fprintf(&b, "%d %s\n", i, spec.DataDigest())
	}
	checkGolden(t, "specmatrix.golden", b.String())
}
