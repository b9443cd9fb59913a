package inputformat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// readSplits reads a file through the split machinery at the given split
// size and returns, per split, the emitted (offset, line) records plus the
// reader's InputBytes tally.
type splitRead struct {
	keys  []int64
	lines []string
	bytes int64
}

func readFileSplits(t *testing.T, path string, splitSize int64) []splitRead {
	t.Helper()
	f := &TextFormat{Dir: filepath.Dir(path), SplitSize: splitSize}
	splits, err := f.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []splitRead
	for _, s := range splits {
		r, err := f.Reader(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sr splitRead
		for {
			k, v, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			sr.keys = append(sr.keys, k.(*writable.LongWritable).Value)
			sr.lines = append(sr.lines, string(v.(*writable.Text).Data))
		}
		sr.bytes = r.(*LineReader).InputBytes()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, sr)
	}
	return out
}

func writeCorpusFile(t *testing.T, content string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "input-0000.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// expectedLines is the whole-file single-reader truth: every newline ends a
// record, CR before the newline is stripped, a final unterminated line is a
// record.
func expectedLines(content string) (keys []int64, lines []string) {
	off := int64(0)
	for len(content) > 0 {
		i := strings.IndexByte(content, '\n')
		var raw string
		if i < 0 {
			raw = content
			content = ""
		} else {
			raw = content[:i+1]
			content = content[i+1:]
		}
		line := strings.TrimSuffix(strings.TrimSuffix(raw, "\n"), "\r")
		keys = append(keys, off)
		lines = append(lines, line)
		off += int64(len(raw))
	}
	return keys, lines
}

// TestSplitBoundaryMatrix pins the owning-split contract across the
// boundary geometries that break naive readers: records ending exactly at,
// one byte before, and one byte after a split boundary; records spanning
// one or several boundaries; CRLF straddling a boundary; missing final
// newline; empty files; splits smaller than a record.
func TestSplitBoundaryMatrix(t *testing.T) {
	// Lines around bufio's 4 KiB buffer take LineReader's long-line path:
	// 4095 bytes + '\n' fill the buffer exactly, 4096 and up overflow it.
	long := func(n int, c string) string { return strings.Repeat(c, n) }
	cases := []struct {
		name      string
		content   string
		splitSize int64
		// wantPerSplit, when non-nil, pins which records land in which
		// split (indices into the whole-file record sequence).
		wantPerSplit [][]int
	}{
		{
			// "abcd\n" = 5 bytes; boundary at 5 is exactly a record edge:
			// split 0 owns record 0, split 1 starts right on a fresh line.
			name: "record ends exactly at boundary", content: "abcd\nefgh\n",
			splitSize: 5, wantPerSplit: [][]int{{0}, {1}},
		},
		{
			// Boundary at 4 falls on record 0's '\n' itself: that byte is
			// part of record 0, which split 0 owns. Split 1 peeks byte 3
			// ('d'), skips past the newline at offset 4, and owns record 1.
			name: "boundary one byte before record end", content: "abcd\nefgh\n",
			splitSize: 4, wantPerSplit: [][]int{{0}, {1}, {}},
		},
		{
			// Boundary at 6 is one byte into record 1: record 1 starts at 5,
			// inside split 0's range, so split 0 owns both.
			name: "boundary one byte after record start", content: "abcd\nefgh\n",
			splitSize: 6, wantPerSplit: [][]int{{0, 1}, {}},
		},
		{
			name: "record spans multiple splits", content: "0123456789012345678\nx\n",
			splitSize: 4, wantPerSplit: [][]int{{0}, {}, {}, {}, {}, {1}},
		},
		{
			// CRLF straddles the boundary: '\r' is split 0's last byte,
			// '\n' split 1's first. Split 1 peeks '\r' != '\n', so it skips
			// the dangling '\n' and starts at record 1 (offset 6) — without
			// the peek rule it would either duplicate record 0's tail or
			// emit a phantom empty record.
			name: "CRLF straddling boundary", content: "abcd\r\nefgh\r\n",
			splitSize: 5, wantPerSplit: [][]int{{0}, {1}, {}},
		},
		{name: "CRLF basic", content: "a\r\nbb\r\nccc\r\n", splitSize: 100},
		{name: "no trailing newline", content: "alpha\nbeta", splitSize: 4},
		{name: "trailing newline", content: "alpha\nbeta\n", splitSize: 4},
		{name: "single unterminated record", content: "no newline at all", splitSize: 3},
		{name: "empty lines", content: "\n\n\na\n\n", splitSize: 2},
		{name: "split smaller than one record", content: "a long record here\nshort\n", splitSize: 2},
		{name: "lone newline", content: "\n", splitSize: 1},
		{name: "single byte no newline", content: "x", splitSize: 1},
		{name: "4095-byte line", content: long(4095, "a") + "\nb\n", splitSize: 1 << 20},
		{name: "4096-byte line", content: long(4096, "a") + "\nb\n", splitSize: 1 << 20},
		{name: "4097-byte line", content: long(4097, "a") + "\nb\n", splitSize: 1 << 20},
		{name: "10000-byte lines", content: long(10000, "a") + "\n" + long(10000, "b"), splitSize: 1 << 20},
		{
			// '\r' is the last byte of the first buffer fill, '\n' the first
			// of the next: the CR is stripped from the assembled line.
			name: "CRLF straddling the buffer edge", content: long(4095, "c") + "\r\nd\r\n",
			splitSize: 1 << 20, wantPerSplit: [][]int{{0, 1}},
		},
		{
			// Split 1 starts inside the long line and skips the rest of it
			// through the long-line path; split 2 starts inside it too.
			name: "split boundary inside a long line", content: "s\n" + long(10000, "l") + "\r\nafter\n",
			splitSize: 4000, wantPerSplit: [][]int{{0, 1}, {}, {2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeCorpusFile(t, tc.content)
			reads := readFileSplits(t, path, tc.splitSize)
			wantKeys, wantLines := expectedLines(tc.content)

			var gotKeys []int64
			var gotLines []string
			var gotBytes int64
			for _, sr := range reads {
				gotKeys = append(gotKeys, sr.keys...)
				gotLines = append(gotLines, sr.lines...)
				gotBytes += sr.bytes
			}
			if len(gotLines) != len(wantLines) {
				t.Fatalf("got %d records %q, want %d %q", len(gotLines), gotLines, len(wantLines), wantLines)
			}
			for i := range wantLines {
				if gotLines[i] != wantLines[i] || gotKeys[i] != wantKeys[i] {
					t.Errorf("record %d: got (%d, %q), want (%d, %q)",
						i, gotKeys[i], gotLines[i], wantKeys[i], wantLines[i])
				}
			}
			if gotBytes != int64(len(tc.content)) {
				t.Errorf("summed InputBytes = %d, want file size %d", gotBytes, len(tc.content))
			}
			if tc.wantPerSplit != nil {
				if len(reads) != len(tc.wantPerSplit) {
					t.Fatalf("got %d splits, want %d", len(reads), len(tc.wantPerSplit))
				}
				next := 0
				for si, want := range tc.wantPerSplit {
					if len(reads[si].lines) != len(want) {
						t.Fatalf("split %d: got %d records %q, want %d", si, len(reads[si].lines), reads[si].lines, len(want))
					}
					for ri, wi := range want {
						if reads[si].lines[ri] != wantLines[wi] {
							t.Errorf("split %d record %d: got %q, want record %d %q",
								si, ri, reads[si].lines[ri], wi, wantLines[wi])
						}
						next++
						_ = next
					}
				}
			}
		})
	}
}

// TestEmptyFile: zero-byte files produce no splits and no records, and
// coexist with non-empty siblings without perturbing their global offsets.
func TestEmptyFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a-empty.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.txt"), []byte("one\ntwo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &TextFormat{Dir: dir, SplitSize: 4}
	splits, err := f.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range splits {
		if s.(*FileSplit).Size == 0 {
			t.Fatalf("empty file produced a split: %v", s)
		}
	}
	total, err := TotalBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("TotalBytes = %d, want 8", total)
	}
}

// TestGlobalOffsets: keys are corpus-global (file Base + line offset), so a
// multi-file directory numbers records as if concatenated in name order.
func TestGlobalOffsets(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("aa\nbb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.txt"), []byte("cc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &TextFormat{Dir: dir, SplitSize: 100}
	splits, err := f.Splits(nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for _, s := range splits {
		r, err := f.Reader(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			k, _, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			keys = append(keys, k.(*writable.LongWritable).Value)
		}
		r.Close()
	}
	want := []int64{0, 3, 6}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

// TestConfSplitSize: the conf key steers split size when the field is
// unset, mirroring mapreduce.input.fileinputformat.split.maxsize.
func TestConfSplitSize(t *testing.T) {
	path := writeCorpusFile(t, "aaaa\nbbbb\ncccc\n")
	conf := mapreduce.NewConf().SetInt(ConfSplitSize, 5)
	f := &TextFormat{Dir: filepath.Dir(path)}
	splits, err := f.Splits(conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("got %d splits, want 3", len(splits))
	}
}

// TestLineReaderAllocatesNothing: a short line is a view into the reader's
// buffer, so reading one allocates nothing.
func TestLineReaderAllocatesNothing(t *testing.T) {
	path := writeCorpusFile(t, strings.Repeat("key\tvalue\r\n", 1000))
	r, err := NewLineReader(&FileSplit{Path: path, End: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := testing.AllocsPerRun(500, func() {
		if _, v, ok, err := r.Next(); err != nil || !ok || string(v.(*writable.Text).Data) != "key\tvalue" {
			t.Fatalf("Next = %v, %v, %v", v, ok, err)
		}
	}); n != 0 {
		t.Errorf("LineReader.Next: %v allocs per line, want 0", n)
	}
}

// TestTextWriterAllocatesNothing: a Text key and value go out as their
// bytes, without a string conversion.
func TestTextWriterAllocatesNothing(t *testing.T) {
	w, err := TextOutput{Dir: t.TempDir()}.Writer(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	key, val := writable.NewText("key"), writable.NewText("value")
	if n := testing.AllocsPerRun(1000, func() {
		if err := w.Write(key, val); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("textWriter.Write: %v allocs per record, want 0", n)
	}
}

// TestTextOutputAbort: an aborted writer removes its temp and commits
// nothing.
func TestTextOutputAbort(t *testing.T) {
	dir := t.TempDir()
	w, err := TextOutput{Dir: dir}.Writer(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(writable.NewText("k"), writable.NewText("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("aborted writer left %v", left)
	}
}

// TestTextOutputCommit: writers land dot-prefixed temps and only the
// committed rename is visible to ListFiles; NullWritable values render as
// bare keys.
func TestTextOutputCommit(t *testing.T) {
	dir := t.TempDir()
	out := TextOutput{Dir: dir}
	w, err := out.Writer(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-write, nothing is visible.
	files, err := ListFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("uncommitted writer visible: %v", files)
	}
	if err := w.Write(writable.NewText("k"), &writable.LongWritable{Value: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(writable.NewText("solo"), writable.NullWritable{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "part-r-00003"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), "k\t7\nsolo\n"; got != want {
		t.Fatalf("part contents = %q, want %q", got, want)
	}
}

// TestMaterializeDeterministic: the same text spec materializes to the same
// directory with identical bytes, and distinct seeds diverge.
func TestMaterializeDeterministic(t *testing.T) {
	spec := TextSpec{Seed: 11, Files: 2, Bytes: 512, Shape: "mixed"}.String()
	d1, err := Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("same spec gave %q and %q", d1, d2)
	}
	g1, err := DirDigest(d1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Materialize(TextSpec{Seed: 12, Files: 2, Bytes: 512, Shape: "mixed"}.String())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := DirDigest(other)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Fatal("different seeds materialized identical corpora")
	}
	if _, err := Materialize("bogus-no-scheme"); err == nil {
		t.Fatal("scheme-less spec accepted")
	}
	if _, err := Materialize("nosuch:x=1"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
