package mapreduce

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mrmicro/internal/seqfile"
	"mrmicro/internal/writable"
)

// SequenceFileInput reads records from SequenceFiles on disk, one map split
// per file (Hadoop's SequenceFileInputFormat at whole-file granularity).
type SequenceFileInput struct {
	// Paths are files or directories; directories contribute every
	// regular file inside them (sorted for determinism).
	Paths []string
}

type seqSplit struct {
	path string
	size int64
}

func (s *seqSplit) Length() int64 { return s.size }

// Splits expands the paths into per-file splits.
func (in *SequenceFileInput) Splits(_ *Conf) ([]InputSplit, error) {
	var files []string
	for _, p := range in.Paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: input path: %w", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(p, e.Name()))
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("mapreduce: no input files under %v", in.Paths)
	}
	out := make([]InputSplit, 0, len(files))
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		out = append(out, &seqSplit{path: f, size: info.Size()})
	}
	return out, nil
}

// Reader opens one file.
func (in *SequenceFileInput) Reader(split InputSplit, _ *Conf) (RecordReader, error) {
	ss := split.(*seqSplit)
	f, err := os.Open(ss.path)
	if err != nil {
		return nil, err
	}
	r, err := seqfile.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mapreduce: %s: %w", ss.path, err)
	}
	return &seqReader{f: f, r: r}, nil
}

type seqReader struct {
	f *os.File
	r *seqfile.Reader
}

func (r *seqReader) Next() (writable.Writable, writable.Writable, bool, error) {
	return r.r.Next()
}

func (r *seqReader) Close() error { return r.f.Close() }

// SequenceFileOutput writes each reduce task's output to
// <Dir>/part-r-NNNNN as a SequenceFile, Hadoop's default layout.
type SequenceFileOutput struct {
	Dir        string
	KeyClass   string
	ValueClass string
}

// Writer creates the reduce task's part file.
func (o *SequenceFileOutput) Writer(_ *Conf, reduce int) (RecordWriter, error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.Dir, fmt.Sprintf("part-r-%05d", reduce))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := seqfile.NewWriter(f, o.KeyClass, o.ValueClass)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &seqWriter{f: f, w: w}, nil
}

type seqWriter struct {
	f *os.File
	w *seqfile.Writer
}

func (w *seqWriter) Write(key, value writable.Writable) error { return w.w.Append(key, value) }

func (w *seqWriter) Close() error {
	if err := w.w.Close(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort closes and removes the part file: a failed attempt's partial
// SequenceFile must not be mistaken for output.
func (w *seqWriter) Abort() error {
	w.f.Close()
	return os.Remove(w.f.Name())
}
