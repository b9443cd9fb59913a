package inputformat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrmicro/internal/xxh64"
)

func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDirDigestFramesFiles: a file whose contents spell another file's
// boundary and name must not digest like the two files (under the old
// zero-byte separators both directories hashed to a0808ee7e716cdcf), and a
// file that grows after its length was framed is an error, not a digest.
func TestDirDigestFramesFiles(t *testing.T) {
	one := writeFiles(t, map[string]string{"a": "x\x00b\x00y"})
	two := writeFiles(t, map[string]string{"a": "x", "b": "y"})
	d1, err := DirDigest(one)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DirDigest(two)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatalf("a=%q and a=%q b=%q both digest to %016x", "x\x00b\x00y", "x", "y", d1)
	}

	path := filepath.Join(writeFiles(t, map[string]string{"part-r-00000": "row\n"}), "part-r-00000")
	grow := &growingWriter{Digest: xxh64.New(), path: path}
	err = hashFile(grow, path, make([]byte, 1024))
	if err == nil || !strings.Contains(err.Error(), "Stat reported 4") {
		t.Fatalf("hashFile over a growing file: err %v, want a byte-count mismatch", err)
	}
}

// growingWriter appends to path on its first Write, which hashFile makes
// after it framed the length Stat reported and before it reads the file.
type growingWriter struct {
	*xxh64.Digest
	path  string
	grown bool
}

func (w *growingWriter) Write(b []byte) (int, error) {
	if !w.grown {
		w.grown = true
		f, err := os.OpenFile(w.path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if _, err := f.WriteString("late\n"); err != nil {
			return 0, err
		}
	}
	return w.Digest.Write(b)
}
