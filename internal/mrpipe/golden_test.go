package mrpipe

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"mrmicro/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite testdata/hs_digests.golden from the current code")

// hsDigestShapes are the pipelines testdata/hs_digests.golden pins: the
// bench's hs-pipeline shape, and a small one whose 4 KiB splits cut the
// generated rows mid-line and whose 5 reduces split 3 maps' keys unevenly.
var hsDigestShapes = []struct {
	name string
	base microbench.Config
}{
	{"bench", microbench.Config{NumMaps: 4, PairsPerMap: 100000, NumReduces: 4, ParallelCopies: 2}},
	{"small", microbench.Config{NumMaps: 3, PairsPerMap: 777, NumReduces: 5, SplitSize: 4096}},
}

// TestHSDigestsGolden holds every stage's committed output of the HS
// pipeline to digests captured before the HS path stopped going through
// fmt and fresh allocations: the same rows, sorted into the same parts,
// validated to the same verdict.
func TestHSDigestsGolden(t *testing.T) {
	const golden = "testdata/hs_digests.golden"
	var buf bytes.Buffer
	for _, shape := range hsDigestShapes {
		for _, seed := range []int64{1, 23} {
			base := shape.base
			base.Seed = seed
			results, err := RunHS(base, t.TempDir(), nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shape.name, seed, err)
			}
			for _, r := range results {
				fmt.Fprintf(&buf, "%s seed=%d %s %016x\n", shape.name, seed, r.Name, r.OutputDigest)
			}
		}
	}
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stage digests moved:\ngot:\n%swant:\n%s", buf.Bytes(), want)
	}
}
