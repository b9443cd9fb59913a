package inputformat

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// TextOutput commits each reduce task's output as Dir/part-r-NNNNN, one
// "key<TAB>value" line per record (key only when the value is a
// NullWritable). Writers stream into a dot-prefixed temp file and rename it
// over the final name on Close, so a crashed or speculative attempt can
// never leave a half-written part visible: readers (ListFiles) skip dot
// files, and the rename is atomic on POSIX.
type TextOutput struct {
	Dir string
}

// Writer opens the part writer for one reduce task.
func (o TextOutput) Writer(conf *mapreduce.Conf, reduce int) (mapreduce.RecordWriter, error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("inputformat: %w", err)
	}
	final := filepath.Join(o.Dir, PartName(reduce))
	tmp, err := os.CreateTemp(o.Dir, "."+PartName(reduce)+"-*")
	if err != nil {
		return nil, fmt.Errorf("inputformat: %w", err)
	}
	return &textWriter{f: tmp, bw: bufio.NewWriter(tmp), final: final}, nil
}

// PartName is the committed file name for reduce task r.
func PartName(r int) string { return fmt.Sprintf("part-r-%05d", r) }

type textWriter struct {
	f     *os.File
	bw    *bufio.Writer
	final string
}

func (w *textWriter) Write(key, value writable.Writable) error {
	w.field(key)
	if _, ok := value.(writable.NullWritable); !ok {
		w.bw.WriteByte('\t')
		w.field(value)
	}
	// bufio.Writer errors are sticky: the terminator reports any earlier one.
	return w.bw.WriteByte('\n')
}

// field writes one rendered writable; a Text's bytes go in as they are.
func (w *textWriter) field(v writable.Writable) {
	if t, ok := v.(*writable.Text); ok {
		w.bw.Write(t.Data)
	} else {
		w.bw.WriteString(Render(v))
	}
}

func (w *textWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	return os.Rename(w.f.Name(), w.final)
}

// Abort closes and removes the temp file; the final name is never touched.
func (w *textWriter) Abort() error {
	w.f.Close()
	return os.Remove(w.f.Name())
}

// Render is the textual form a writable takes in a part file: Text values
// verbatim, everything else via its String form (LongWritable decimal, …).
func Render(w writable.Writable) string {
	switch v := w.(type) {
	case *writable.Text:
		return string(v.Data)
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprintf("%#v", w)
	}
}

// DirDigest fingerprints a committed output directory: FNV-64a over each
// corpus file's name and contents in sorted name order. Two directories
// with identical committed parts digest identically regardless of where
// they live, which is what the chained-pipeline identity check compares.
// Contents stream through one reused buffer, never a whole file at once.
func DirDigest(dir string) (uint64, error) {
	paths, err := ListFiles(dir)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	buf := make([]byte, 256<<10)
	for _, p := range paths {
		h.Write([]byte(filepath.Base(p)))
		h.Write([]byte{0})
		if err := hashFile(h, p, buf); err != nil {
			return 0, fmt.Errorf("inputformat: %w", err)
		}
		h.Write([]byte{0})
	}
	return h.Sum64(), nil
}

// hashFile writes the file's contents into h through buf. (io.CopyBuffer
// would hand the copy to os.File.WriteTo, which brings its own buffer.)
func hashFile(h hash.Hash64, path string, buf []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		n, err := f.Read(buf)
		h.Write(buf[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
