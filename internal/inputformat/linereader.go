package inputformat

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"mrmicro/internal/writable"
)

// LineReader iterates the newline-delimited records a split owns, with
// Hadoop LineRecordReader's boundary contract:
//
//   - A split owns exactly the records whose FIRST byte lies in [Start, End).
//   - A split starting at 0 begins reading immediately. Any other split
//     peeks at byte Start-1: if that byte is '\n' the record at Start is a
//     fresh line and the split owns it; otherwise byte Start sits inside a
//     record owned by the previous split, so the reader skips forward past
//     the next '\n' before emitting anything.
//   - The last record a split owns may extend past End — the reader keeps
//     going to the record's true end (possibly EOF), which is exactly why
//     the next split must skip its leading partial line.
//   - "\r\n" and "\n" both terminate a record; the terminator (and the
//     '\r') is stripped from the emitted value. A final line without a
//     trailing newline is still a record.
//
// Keys are corpus-global byte offsets (split Base + line start), values the
// line bytes. InputBytes tallies every raw byte of the owned records —
// terminators included, skipped prefixes excluded — so summing it across a
// file's splits yields exactly the file size.
type LineReader struct {
	f   *os.File
	br  *bufio.Reader
	pos int64 // file offset of the next unread byte
	end int64 // first offset this split does not own a record start at

	base  int64 // corpus-global offset of the file's first byte
	bytes int64 // raw bytes of records emitted so far

	key  writable.LongWritable
	val  writable.Text
	long []byte // a line longer than br's buffer, assembled; reused
}

// NewLineReader positions a reader at the first record the split owns.
func NewLineReader(s *FileSplit) (*LineReader, error) {
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, fmt.Errorf("inputformat: %w", err)
	}
	r := &LineReader{f: f, end: s.End, base: s.Base}
	if s.Start == 0 {
		r.br = bufio.NewReader(f)
		return r, nil
	}
	// Peek the byte before the split: only a preceding '\n' makes Start a
	// record start. Otherwise the record containing Start-1 spills into this
	// split and belongs to the previous one — skip past its terminator.
	if _, err := f.Seek(s.Start-1, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("inputformat: %w", err)
	}
	r.br = bufio.NewReader(f)
	prev, err := r.br.ReadByte()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("inputformat: %w", err)
	}
	r.pos = s.Start
	if prev != '\n' {
		skipped, err := r.readLine()
		if err != nil && err != io.EOF {
			f.Close()
			return nil, fmt.Errorf("inputformat: %w", err)
		}
		// On EOF without a newline the partial record ends the file and the
		// previous split consumed it entirely; pos lands at EOF and Next
		// terminates immediately.
		r.pos += int64(len(skipped))
	}
	return r, nil
}

// readLine reads up to and including the next '\n' (or to EOF). The line
// is a view into the bufio buffer, or into r.long when it outgrows the
// buffer; either way it is valid until the next read.
func (r *LineReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.long = append(r.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.br.ReadSlice('\n')
		r.long = append(r.long, line...)
	}
	return r.long, err
}

// Next emits the next owned record. The returned key and value are reused
// between calls, and the value's bytes are a view into the reader's buffer:
// callers must copy to retain.
func (r *LineReader) Next() (writable.Writable, writable.Writable, bool, error) {
	if r.pos >= r.end {
		// The record starting here (if any) belongs to the next split.
		return nil, nil, false, nil
	}
	line, err := r.readLine()
	if err != nil && err != io.EOF {
		return nil, nil, false, fmt.Errorf("inputformat: %w", err)
	}
	if len(line) == 0 {
		return nil, nil, false, nil // EOF exactly at a record boundary
	}
	raw := int64(len(line))
	trimmed := line
	if n := len(trimmed); trimmed[n-1] == '\n' {
		trimmed = trimmed[:n-1]
		if m := len(trimmed); m > 0 && trimmed[m-1] == '\r' {
			trimmed = trimmed[:m-1]
		}
	}
	r.key.Value = r.base + r.pos
	r.val.Data = trimmed
	r.pos += raw
	r.bytes += raw
	return &r.key, &r.val, true, nil
}

// InputBytes is the raw byte count of the records emitted so far.
func (r *LineReader) InputBytes() int64 { return r.bytes }

// Close releases the underlying file.
func (r *LineReader) Close() error { return r.f.Close() }
