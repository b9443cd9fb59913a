package inputformat_test

import (
	"os"
	"path/filepath"
	"testing"

	"mrmicro/internal/apps"
	"mrmicro/internal/inputformat"
)

// BenchmarkDirDigest digests the bench hs-pipeline's HSSort output shape:
// 4 parts of 100 000 HS rows, 4.8 MB each.
func BenchmarkDirDigest(b *testing.B) {
	const parts, rows = 4, 100000
	dir := b.TempDir()
	var size int64
	for p := range parts {
		var buf []byte
		for r := range rows {
			buf = append(append(buf, apps.HSLine(1, int64(p*rows+r))...), '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, inputformat.PartName(p)), buf, 0o644); err != nil {
			b.Fatal(err)
		}
		size += int64(len(buf))
	}
	b.SetBytes(size)
	for b.Loop() {
		if _, err := inputformat.DirDigest(dir); err != nil {
			b.Fatal(err)
		}
	}
}
