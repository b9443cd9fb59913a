package kvbuf

import (
	"compress/flate"
	"io"
	"sync"

	"mrmicro/internal/deflate"
)

// Codec is a pluggable compression codec for IFile segments, the
// real-execution analogue of mapreduce.map.output.compress.codec. A map's
// output is compressed once per partition, when the map registers it, and
// travels the wire compressed; the reduce side inflates it streaming off
// the socket.
type Codec interface {
	// Name identifies the codec in conf values and in the compressed
	// segment header.
	Name() string
	// Compress appends src's compressed stream to dst and returns the
	// extended slice.
	Compress(dst, src []byte) []byte
	// NewReader wraps r with a streaming decompressor.
	NewReader(r io.Reader) io.ReadCloser
}

// Deflate is the DEFLATE codec at BestSpeed — the spiritual
// equivalent of Hadoop's default DefaultCodec (zlib), tuned for the
// shuffle's throughput-over-ratio trade-off.
var Deflate Codec = deflateCodec{}

// CodecByName resolves a codec by its conf value. The empty string and
// "none" resolve to a nil codec (compression off) with ok=true; unknown
// names return ok=false.
func CodecByName(name string) (Codec, bool) {
	switch name {
	case "", "none":
		return nil, true
	case "deflate":
		return Deflate, true
	}
	return nil, false
}

// CodecNames lists the accepted conf values for a codec choice.
func CodecNames() []string { return []string{"none", "deflate"} }

type deflateCodec struct{}

func (deflateCodec) Name() string { return "deflate" }

// flateReaders recycles the ~40KB decompressor state on the fetch path.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(emptyReader{})
}}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// Compress writes the bytes compress/flate writes at BestSpeed, through
// internal/deflate's one-shot copy of that encoder.
func (deflateCodec) Compress(dst, src []byte) []byte { return deflate.AppendBestSpeed(dst, src) }

func (deflateCodec) NewReader(r io.Reader) io.ReadCloser {
	zr := flateReaders.Get().(io.ReadCloser)
	if err := zr.(flate.Resetter).Reset(r, nil); err != nil {
		panic(err) // nil dict cannot fail
	}
	return &pooledFlateReader{zr: zr}
}

// pooledFlateReader returns the decompressor to the pool on Close.
type pooledFlateReader struct {
	zr     io.ReadCloser
	closed bool
}

func (p *pooledFlateReader) Read(b []byte) (int, error) { return p.zr.Read(b) }

func (p *pooledFlateReader) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.zr.Close()
	flateReaders.Put(p.zr)
	return err
}
