package seqfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mrmicro/internal/fuzzcorpus"
	"mrmicro/internal/writable"
)

// fuzzSeedFile writes a small valid SequenceFile for the seed corpus.
func fuzzSeedFile(tb testing.TB) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "Text", "LongWritable")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(writable.NewText("key"), &writable.LongWritable{Value: int64(i)}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeeds is the named seed list behind both the in-process f.Add calls
// and the checked-in testdata/fuzz corpus.
func fuzzSeeds(tb testing.TB) [][]byte {
	valid := fuzzSeedFile(tb)
	hostile := bytes.Clone(valid)
	hostile[len(hostile)-9] = 0x7f // blow up a record length field
	meta := bytes.Clone(valid)
	meta[len("SEQx")+2+len("Text")+2+len("LongWritable")+2] = 0xff // metadata count
	return [][]byte{
		valid,
		valid[:len(valid)-5], // truncated mid-record
		valid[:20],           // truncated inside the header
		[]byte("SEQ\x06"),    // magic only
		[]byte("NOPE"),       // wrong magic
		{},                   // empty
		hostile,
		meta,
	}
}

// TestFuzzSeedCorpusSync pins the checked-in corpus to the seed list (see
// kvbuf's twin for rationale). Regenerate with MRMICRO_WRITE_CORPUS=1.
func TestFuzzSeedCorpusSync(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSeqFileReader")
	if os.Getenv("MRMICRO_WRITE_CORPUS") != "" {
		if err := fuzzcorpus.Write(dir, fuzzSeeds(t)); err != nil {
			t.Fatal(err)
		}
		return
	}
	corpus, err := fuzzcorpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m := fuzzcorpus.Missing(corpus, fuzzSeeds(t)); len(m) != 0 {
		t.Errorf("%d seeds missing from %s; regenerate with MRMICRO_WRITE_CORPUS=1", len(m), dir)
	}
}

// FuzzSeqFileReader feeds arbitrary bytes through the SequenceFile header
// parser and record iterator. Corrupt or truncated input — including hostile
// length fields in the header metadata and record framing — must surface as
// an error, never a panic or an unbounded allocation.
func FuzzSeqFileReader(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected at the header: fine
		}
		records := 0
		for {
			_, _, ok, err := r.Next()
			if err != nil || !ok {
				return
			}
			records++
			if records > len(data) {
				t.Fatalf("decoded %d records from %d bytes: reader not consuming input", records, len(data))
			}
		}
	})
}

// TestReaderRejectsHostileMetadataLength pins the bounds check on the
// metadata Text vlong (a corrupt length must not drive the allocation).
func TestReaderRejectsHostileMetadataLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("SEQ\x06")
	buf.Write([]byte{0, 4}) // key class
	buf.WriteString("Text")
	buf.Write([]byte{0, 4}) // value class
	buf.WriteString("Text")
	buf.Write([]byte{0, 0})                               // not compressed
	buf.Write([]byte{0, 0, 0, 1})                         // one metadata entry
	buf.Write([]byte{0x8c, 0x7f, 0xff, 0xff, 0xff, 0xff}) // vlong ~2^39 text length
	_, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("hostile metadata length accepted")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("implausible")) {
		t.Errorf("unexpected error: %v", err)
	}
}
