package inputformat

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrmicro/internal/fuzzcorpus"
	"mrmicro/internal/writable"
)

// fuzzSeeds is the named seed list behind both the in-process f.Add calls
// and the checked-in testdata/fuzz corpus: each one pins a boundary
// geometry from the split matrix (see TestSplitBoundaryMatrix).
func fuzzSeeds() [][]byte {
	return [][]byte{
		[]byte("abcd\nefgh\n"),             // records at boundaries for small sizes
		[]byte("abcd\r\nefgh\r\n"),         // CRLF, incl. \r\n straddling a boundary
		[]byte("alpha\nbeta"),              // no trailing newline
		[]byte("\n\n\na\n\n"),              // empty lines
		[]byte("0123456789012345678\nx\n"), // record spanning many splits
		[]byte("x"),                        // single unterminated byte
		[]byte("\n"),                       // lone newline
		{},                                 // empty file
		[]byte("mixed\r\nterminators\nhere\r\nz"), // LF and CRLF interleaved
		// Longer than bufio's 4 KiB buffer, CRLF straddling its edge.
		[]byte(strings.Repeat("l", 4095) + "\r\n" + strings.Repeat("m", 4097) + "\nz"),
	}
}

// TestFuzzSeedCorpusSync pins the checked-in corpus to the seed list (see
// kvbuf's twin for rationale). Regenerate with MRMICRO_WRITE_CORPUS=1.
func TestFuzzSeedCorpusSync(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSplitReader")
	if os.Getenv("MRMICRO_WRITE_CORPUS") != "" {
		if err := fuzzcorpus.Write(dir, fuzzSeeds()); err != nil {
			t.Fatal(err)
		}
		return
	}
	corpus, err := fuzzcorpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m := fuzzcorpus.Missing(corpus, fuzzSeeds()); len(m) != 0 {
		t.Errorf("%d seeds missing from %s; regenerate with MRMICRO_WRITE_CORPUS=1", len(m), dir)
	}
}

// FuzzSplitReader is the record reader's ground-truth property: for ANY
// file content and ANY split size, concatenating what each split's reader
// emits equals what one reader over the whole file emits — every record
// exactly once, in order, with global offsets intact and InputBytes
// summing to the file size. The fuzzer varies content; split sizes sweep
// 1..len+1 inside, so each input exercises every boundary placement.
func FuzzSplitReader(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "input-0000.txt"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		read := func(splitSize int64) (keys []int64, lines [][]byte, raw int64) {
			format := &TextFormat{Dir: dir, SplitSize: splitSize}
			splits, err := format.Splits(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range splits {
				r, err := format.Reader(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				for {
					k, v, ok, err := r.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					keys = append(keys, k.(*writable.LongWritable).Value)
					lines = append(lines, append([]byte(nil), v.(*writable.Text).Data...))
				}
				raw += r.(*LineReader).InputBytes()
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
			return keys, lines, raw
		}

		wholeKeys, wholeLines, wholeBytes := read(int64(len(data)) + 1)
		if wholeBytes != int64(len(data)) {
			t.Fatalf("whole-file InputBytes = %d, want %d", wholeBytes, len(data))
		}
		// Sweep split sizes densely for small inputs, sparsely for larger
		// ones; always include the off-by-one sizes around the file length.
		sizes := []int64{1, 2, 3, 5, 7, int64(len(data)), int64(len(data)) - 1, int64(len(data))/2 + 1}
		for _, size := range sizes {
			if size < 1 {
				continue
			}
			keys, lines, raw := read(size)
			if raw != int64(len(data)) {
				t.Fatalf("split=%d: summed InputBytes = %d, want %d", size, raw, len(data))
			}
			if len(lines) != len(wholeLines) {
				t.Fatalf("split=%d: %d records, whole-file read has %d", size, len(lines), len(wholeLines))
			}
			for i := range lines {
				if keys[i] != wholeKeys[i] || !bytes.Equal(lines[i], wholeLines[i]) {
					t.Fatalf("split=%d record %d: got (%d, %q), want (%d, %q)",
						size, i, keys[i], lines[i], wholeKeys[i], wholeLines[i])
				}
			}
		}
	})
}
