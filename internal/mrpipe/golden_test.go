package mrpipe

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mrmicro/internal/inputformat"
	"mrmicro/internal/leakcheck"
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
// pipeline to committed digests: the same rows, sorted into the same parts,
// validated to the same verdict. Each line carries two fingerprints of the
// same directory. fnv64a is fnvDirDigest, the FNV-64a DirDigest the golden
// was first captured with, before the HS path stopped going through fmt and
// fresh allocations; for hsgen and hssort it still reads the values of that
// capture, which proves no output byte moved when DirDigest became XXH64.
// hsvalidate's fnv64a moved with that change, because its one output line
// prints the sum of the row digests, and those are XXH64 now too. dirdigest
// is today's DirDigest, which RunHS reports.
func TestHSDigestsGolden(t *testing.T) {
	leakcheck.Check(t, 0)
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
				fnv, err := fnvDirDigest(r.Config.OutputDir)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s seed=%d %s fnv64a=%016x dirdigest=%016x\n", shape.name, seed, r.Name, fnv, r.OutputDigest)
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

// fnvDirDigest is DirDigest as it was when hs_digests.golden was first
// captured: FNV-64a over each file's name, a zero byte, its contents and a
// zero byte, in sorted name order.
func fnvDirDigest(dir string) (uint64, error) {
	paths, err := inputformat.ListFiles(dir)
	if err != nil {
		return 0, err
	}
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		for _, c := range slices.Concat([]byte(filepath.Base(p)), []byte{0}, data, []byte{0}) {
			h = (h ^ uint64(c)) * 1099511628211 // FNV-64 prime
		}
	}
	return h, nil
}
