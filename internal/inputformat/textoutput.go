package inputformat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
	"mrmicro/internal/xxh64"
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
	return &textWriter{f: tmp, bw: bufio.NewWriterSize(tmp, lineBufSize), final: final}, nil
}

// PartName is the committed file name for reduce task r.
func PartName(r int) string { return fmt.Sprintf("part-r-%05d", r) }

type textWriter struct {
	f     *os.File
	bw    *bufio.Writer
	final string
	row   []byte // the row being rendered, reused across rows
}

// Write renders the whole row — key, a tab and the value unless it is a
// NullWritable, then '\n' — and writes it in one step.
func (w *textWriter) Write(key, value writable.Writable) error {
	w.row = appendRendered(w.row[:0], key)
	if _, ok := value.(writable.NullWritable); !ok {
		w.row = appendRendered(append(w.row, '\t'), value)
	}
	w.row = append(w.row, '\n')
	_, err := w.bw.Write(w.row)
	return err
}

// appendRendered appends one writable's Render form; a Text's bytes go in
// as they are.
func appendRendered(dst []byte, v writable.Writable) []byte {
	if t, ok := v.(*writable.Text); ok {
		return append(dst, t.Data...)
	}
	return append(dst, Render(v)...)
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

// DirDigest fingerprints a committed output directory: XXH64 (seed 0) over
// each corpus file in sorted name order, framed as the name's length, the
// name, the content length and the contents, so no split of bytes between
// names and files digests like another. Two directories with identical
// committed parts digest identically regardless of where they live, which
// is what the chained-pipeline identity check compares. Contents stream
// through one reused buffer, never a whole file at once.
func DirDigest(dir string) (uint64, error) {
	paths, err := ListFiles(dir)
	if err != nil {
		return 0, err
	}
	h := xxh64.New()
	buf := make([]byte, 256<<10)
	for _, p := range paths {
		if err := hashFile(h, p, buf); err != nil {
			return 0, fmt.Errorf("inputformat: %w", err)
		}
	}
	return h.Sum64(), nil
}

// hashFile writes one file's frame into h through buf: the base name's
// length and bytes, then the length Stat reports and the contents. A file
// that reads back a different byte count changed while it was hashed.
// (io.CopyBuffer would hand the copy to os.File.WriteTo, which brings its
// own buffer.)
func hashFile(h hash.Hash64, path string, buf []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	frame := binary.BigEndian.AppendUint64(buf[:0], uint64(len(name)))
	frame = binary.BigEndian.AppendUint64(append(frame, name...), uint64(st.Size()))
	h.Write(frame)
	var read int64
	for {
		n, err := f.Read(buf)
		h.Write(buf[:n])
		read += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if read != st.Size() {
		return fmt.Errorf("%s: read %d bytes, Stat reported %d", path, read, st.Size())
	}
	return nil
}
