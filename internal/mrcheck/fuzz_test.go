package mrcheck

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mrmicro/internal/fuzzcorpus"
)

// fuzzJobDir holds FuzzJob's committed seeds.
var fuzzJobDir = filepath.Join("testdata", "fuzz", "FuzzJob")

// fuzzJobStreams are the math/rand sources whose bytes seed FuzzJob beside
// the empty input. Their configs span bounded merges, tiny sort buffers,
// fan-in 2, codec, combiner, inline spills, fault plans (a process-level
// rate among them), and the grep, wordcount, invindex and hssort workloads.
var fuzzJobStreams = []int64{1, 3, 7, 12, 15, 17, 20, 54, 67, 88}

// fuzzJobSeeds is the empty input, then each stream cut to the bytes its
// decode reads.
func fuzzJobSeeds() [][]byte {
	seeds := [][]byte{{}}
	for _, src := range fuzzJobStreams {
		data := make([]byte, streamLen)
		rand.New(rand.NewSource(src)).Read(data)
		want := Decode(data, GenOptions{Faults: true})
		n := 0
		for !reflect.DeepEqual(Decode(data[:n], GenOptions{Faults: true}), want) {
			n++
		}
		seeds = append(seeds, data[:n])
	}
	return seeds
}

// TestFuzzJobSeedCorpusSync pins the committed seeds to fuzzJobSeeds, so a
// change to the knob table's draws, which moves what the bytes decode to,
// rewrites them too. Regenerate with MRMICRO_WRITE_CORPUS=1.
func TestFuzzJobSeedCorpusSync(t *testing.T) {
	if os.Getenv("MRMICRO_WRITE_CORPUS") != "" {
		if err := fuzzcorpus.Write(fuzzJobDir, fuzzJobSeeds()); err != nil {
			t.Fatal(err)
		}
		return
	}
	corpus, err := fuzzcorpus.Load(fuzzJobDir)
	if err != nil {
		t.Fatal(err)
	}
	if m := fuzzcorpus.Missing(corpus, fuzzJobSeeds()); len(m) != 0 {
		t.Errorf("%d seeds missing from %s; regenerate with MRMICRO_WRITE_CORPUS=1", len(m), fuzzJobDir)
	}
}

// FuzzJob is the generator under the Go fuzzer: its bytes go through
// Decode, the decoder Generate feeds seeded bytes, and the config must pass
// every invariant on localrun, mrv1 and yarn. A zero byte keeps a knob's
// default, so the fuzzer's minimizer simplifies an input the way Shrink
// simplifies a config; a failure is reported shrunk, as mrcheck reports it.
func FuzzJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Decode(data, GenOptions{Faults: true})
		err := CheckConfig(cfg, CheckOptions{})
		var skip *SkipError
		var fail *Failure
		switch {
		case err == nil || errors.As(err, &skip):
		case errors.As(err, &fail):
			fail = ShrinkFailure(cfg, CheckOptions{})
			t.Fatalf("invariant %s: %s\nrepro: %s", fail.Invariant, fail.Detail, ReproLine(fail.Config))
		default:
			t.Fatalf("%v\nrepro: %s", err, ReproLine(cfg))
		}
	})
}
