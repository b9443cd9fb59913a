package apps

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/hs_rows.golden from the current code")

// hsRowsGolden renders the rows and digests testdata/hs_rows.golden pins.
// Seeds and rows cover zero, the sign bit, a row id wider than %020d's
// zero padding is for, and digests over 1 to 400 000 rows.
func hsRowsGolden() []byte {
	seeds := []int64{0, 1, 7, -3, 1 << 40}
	var buf bytes.Buffer
	for _, seed := range seeds {
		for _, row := range []int64{0, 1, 9, 10, 99999, 400000, 1<<40 + 3} {
			fmt.Fprintf(&buf, "line seed=%d row=%d %s\n", seed, row, HSLine(seed, row))
		}
	}
	for _, seed := range seeds {
		for _, rows := range []int64{1, 16383, 16384, 400000} {
			fmt.Fprintf(&buf, "digest seed=%d rows=%d %016x\n", seed, rows, HSDigest(seed, rows))
		}
	}
	return buf.Bytes()
}

// TestHSRowsGolden holds HSLine and HSDigest to committed values. The line
// entries were captured before the allocation-free renderer replaced fmt:
// a changed byte there means every HS pipeline digest moved too. The digest
// entries were regenerated when the row digest moved from FNV-64a to XXH64,
// with every line entry left as it was.
func TestHSRowsGolden(t *testing.T) {
	const golden = "testdata/hs_rows.golden"
	got := hsRowsGolden()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\ngot  %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
