// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package deflate is Go 1.24.0's compress/flate BestSpeed encoder, trimmed
// to what BestSpeed reaches and driven one shot: AppendBestSpeed(dst, src)
// appends the bytes flate.NewWriter(w, flate.BestSpeed), one Write of src and
// Close write to w. Three things differ from the standard library:
//   - deflateFast.matchLen compares eight bytes at a time (commonPrefix);
//   - encoder.encode replaces compressor's fillStore/encSpeed/close and
//     encodes straight from src: deflateFast.encode keeps the previous
//     block as a slice of src, not a copy;
//   - encoder state is pooled and keeps no reference to the caller's bytes.
//
// TestMatchesStdlib and FuzzMatchesStdlib hold the output to compress/flate
// byte for byte; passing them is the licence for any change here.
package deflate

import "sync"

const (
	baseMatchLength   = 3       // The smallest match length per the RFC section 3.2.5
	maxMatchLength    = 258     // The largest match length
	baseMatchOffset   = 1       // The smallest match offset
	maxMatchOffset    = 1 << 15 // The largest match offset
	maxStoreBlockSize = 65535
	maxNumLit         = 286
)

// An InternalError reports an error in the flate code itself.
type InternalError string

func (e InternalError) Error() string { return "flate: internal error: " + string(e) }

var encoders = sync.Pool{New: func() any {
	e := &encoder{fast: newDeflateFast(), tokens: make([]token, 0, maxStoreBlockSize+1)}
	e.w = newHuffmanBitWriter(e)
	return e
}}

// AppendBestSpeed appends src's DEFLATE stream at BestSpeed to dst.
func AppendBestSpeed(dst, src []byte) []byte {
	e := encoders.Get().(*encoder)
	dst = e.encode(dst, src)
	encoders.Put(e)
	return dst
}

type encoder struct {
	fast   *deflateFast
	w      *huffmanBitWriter
	dst    []byte // the caller's dst while encode runs; Write appends to it
	tokens []token
}

// encode is compressor.write of all of src, then compressor.close.
func (e *encoder) encode(dst, src []byte) []byte {
	e.dst = dst
	e.w.reset(e)
	e.fast.reset()
	for len(src) > 0 {
		block := src[:min(len(src), maxStoreBlockSize)]
		src = src[len(block):]
		// compressor.encSpeed: only the last block can be short.
		if len(block) < 128 {
			if len(block) <= 16 {
				e.w.writeStoredHeader(len(block), false)
				e.w.writeBytes(block)
			} else {
				e.w.writeBlockHuff(false, block)
			}
			e.fast.reset()
			continue
		}
		e.tokens = e.fast.encode(e.tokens[:0], block)
		// If we removed less than 1/16th, Huffman compress the block.
		if len(e.tokens) > len(block)-(len(block)>>4) {
			e.w.writeBlockHuff(false, block)
		} else {
			e.w.writeBlockDynamic(e.tokens, false, block)
		}
	}
	e.w.writeStoredHeader(0, true)
	e.w.flush()
	dst, e.dst, e.fast.prev = e.dst, nil, nil
	return dst
}

func (e *encoder) Write(p []byte) (int, error) {
	e.dst = append(e.dst, p...)
	return len(p), nil
}
