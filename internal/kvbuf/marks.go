package kvbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// setMark sets record i's run mark in marks and returns the grown bitset.
// The first growth sizes it for hint records, so a writer that knows its
// record count allocates its marks once.
func setMark(marks []uint64, i, hint int) []uint64 {
	if w := i >> 6; w >= len(marks) {
		n := max(w+1, (hint+63)>>6, 2*len(marks))
		marks = append(marks, make([]uint64, n-len(marks))...)
	}
	marks[i>>6] |= 1 << (i & 63)
	return marks
}

// clearMarks clears the marks of record from and every record after it.
func clearMarks(marks []uint64, from int) {
	w := from >> 6
	if w >= len(marks) {
		return
	}
	marks[w] &= 1<<(from&63) - 1
	clear(marks[w+1:])
}

// Run-marks side frame: a segment's run marks as they travel behind its
// payload on the shuffle wire, and behind its bytes in a disk store's spill
// file.
//
//	uint32     n, the words of marks that follow
//	n x uint64 the marks: bit b of word w marks record 64w+b
//	uint32     CRC32-Castagnoli of the n field and the words
//
// Everything is big-endian. The frame is not part of the segment: the
// payload length, and with it REDUCE_SHUFFLE_BYTES, counts the IFile bytes
// alone, as Hadoop's IFile carries no such field.

// ErrMarksFrame marks a run-marks frame whose word count no segment of the
// size it follows can need, or whose checksum does not hold. Either way the
// count cannot be trusted, so neither can where the frame ends: the stream
// is out of sync.
var ErrMarksFrame = errors.New("kvbuf: malformed run-marks frame")

// maxMarkWords bounds the word count of a frame whose segment is unknown: a
// record takes at least two header bytes, and an IFile stream is at most
// math.MaxInt32 bytes long.
const maxMarkWords = (math.MaxInt32/2 + 63) >> 6

// markWords bounds the marks a raw segment of n bytes can need.
func markWords(n int) int { return (max(n-segmentTrailerBytes, 0)/2 + 63) >> 6 }

// AppendMarksFrame appends s's run-marks frame to dst. Trailing words with
// no mark are left out; a segment with none gets an empty frame.
func (s *Segment) AppendMarksFrame(dst []byte) []byte {
	words := s.marks
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.BigEndian.AppendUint64(dst, w)
	}
	return binary.BigEndian.AppendUint32(dst, frameCRC(0, dst[start:]))
}

// ReadMarksFrame consumes the run-marks frame that follows a segment's
// payload on r and gives seg the marks it holds. seg is the segment as
// read, raw or inflated; nil means the payload was rejected, and the frame
// is consumed and dropped. A word count past what seg's bytes can hold, or
// a checksum that does not match, is an ErrMarksFrame, and a stream that
// ends inside the frame an io.ErrUnexpectedEOF. Each leaves seg unmarked
// and the stream out of sync: a damaged count that stays in bounds reads
// the wrong number of bytes, and only the checksum can tell. Nothing is
// allocated before the count is bounded by bytes already read.
func ReadMarksFrame(r io.Reader, seg *Segment) error {
	var buf [512]byte
	if err := readFrame(r, buf[:4]); err != nil {
		return err
	}
	n, limit := int(binary.BigEndian.Uint32(buf[:4])), maxMarkWords
	if seg != nil {
		limit = markWords(seg.Len())
	}
	if n > limit {
		return fmt.Errorf("%w: %d words of marks, at most %d fit", ErrMarksFrame, n, limit)
	}
	crc := frameCRC(0, buf[:4])
	var marks []uint64
	if seg != nil && n > 0 {
		marks = make([]uint64, n)
	}
	for i := 0; i < n; {
		k := min(n-i, len(buf)/8)
		if err := readFrame(r, buf[:8*k]); err != nil {
			return err
		}
		crc = frameCRC(crc, buf[:8*k])
		if marks != nil {
			for j := range k {
				marks[i+j] = binary.BigEndian.Uint64(buf[8*j:])
			}
		}
		i += k
	}
	if err := readFrame(r, buf[:4]); err != nil {
		return err
	}
	if got := binary.BigEndian.Uint32(buf[:4]); got != crc {
		return fmt.Errorf("%w: checksum %#08x, computed %#08x", ErrMarksFrame, got, crc)
	}
	if seg == nil {
		return nil
	}
	if n > 0 {
		marks[0] &^= 1 // the first record repeats nothing
	}
	seg.marks = marks
	return nil
}

// frameCRC folds p into a marks frame's checksum: CRC32-Castagnoli, as
// segments use, but kept apart from UpdateCRC, whose observer counts the
// passes over segment bytes.
func frameCRC(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// readFrame fills p from r; a stream that ends first is cut inside a frame.
func readFrame(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("kvbuf: run-marks frame: %w", err)
	}
	return nil
}
