package microbench_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mrmicro/internal/fuzzcorpus"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrcheck"
)

// FuzzRepro feeds ParseRepro any bytes split on whitespace. It must not
// panic, and a configuration it accepts must survive its own flag form:
// ParseRepro(cfg.ReproFlags()) normalises to what cfg normalises to. The
// seeds are mrcheck's committed corpus files, comments stripped, and the
// flag form of the config each committed FuzzJob seed decodes to.
func FuzzRepro(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "mrcheck", "testdata", "corpus", "*.repro"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no repro corpus: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		var flags []string
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			flags = append(flags, strings.Fields(line)...)
		}
		f.Add([]byte(strings.Join(flags, " ")))
	}
	jobs, err := fuzzcorpus.Load(filepath.Join("..", "mrcheck", "testdata", "fuzz", "FuzzJob"))
	if err != nil || len(jobs) == 0 {
		f.Fatalf("no FuzzJob seeds: %v", err)
	}
	for _, data := range jobs {
		f.Add([]byte(strings.Join(mrcheck.Decode(data, mrcheck.GenOptions{Faults: true}).ReproFlags(), " ")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := microbench.ParseRepro(strings.Fields(string(data)))
		if err != nil {
			return
		}
		want, err := cfg.Normalize()
		if err != nil {
			return
		}
		args := cfg.ReproFlags()
		back, err := microbench.ParseRepro(args)
		if err != nil {
			t.Fatalf("ParseRepro rejects the flag form of a config it accepted: %v\nargs: %q", err, args)
		}
		got, err := back.Normalize()
		if err != nil {
			t.Fatalf("round-tripped config no longer normalises: %v\nargs: %q", err, args)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch\n args: %q\n got:  %+v\n want: %+v", args, got, want)
		}
	})
}
