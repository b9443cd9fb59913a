package microbench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

// reproCases are the hand-written configurations the round-trip and golden
// tests share: one per corner of the flag vocabulary.
var reproCases = []struct {
	name string
	cfg  Config
}{
	{name: "defaults", cfg: Config{PairsPerMap: 100}},
	{
		name: "explicit everything",
		cfg: Config{
			Pattern:          MRSkew,
			KeySize:          17,
			ValueSize:        4096,
			PairsPerMap:      12345,
			DataType:         "Text",
			NumMaps:          7,
			NumReduces:       3,
			ParallelCopies:   2,
			Slowstart:        0.33,
			ShuffleMemBudget: 48 << 20,
			MergeFactor:      4,
			Engine:           EngineYARN,
			Cluster:          "B",
			Network:          "RDMA-FDR(56Gbps)",
			RDMAShuffle:      true,
			Slaves:           8,
			Seed:             99,
			IOSortMB:         2,
			SpillPercent:     0.67,
			SyncSpill:        true,
		},
	},
	{
		name: "spill ladder point",
		cfg: Config{
			Pattern:      MRAvg,
			PairsPerMap:  200,
			IOSortMB:     1,
			SpillPercent: 0.5,
		},
	},
	{
		name: "extra conf",
		cfg: Config{
			Pattern:     MRRand,
			PairsPerMap: 10,
			ExtraConf: map[string]string{
				"mapreduce.task.io.sort.mb":     "1",
				"mapreduce.task.io.sort.factor": "4",
			},
		},
	},
	{
		name: "fault plan",
		cfg: Config{
			Pattern:     MRAvg,
			PairsPerMap: 50,
			Seed:        7,
			Faults: &faultinject.Plan{
				Seed:                11,
				MapFailureRate:      0.25,
				ShuffleDropRate:     0.125,
				ShuffleTruncateRate: 0.0625,
				ShuffleSlowRate:     0.5,
				ShuffleSlowness:     250 * time.Microsecond,
				SpillErrorRate:      0.1,
				MaxTaskAttempts:     6,
				MaxFetchAttempts:    5,
			},
		},
	},
}

// TestReproRoundTrip is the contract behind every repro line mrcheck prints:
// parsing a config's flag form through the same binder mrbench/mrcheck use
// must reproduce the exact (normalized) config.
func TestReproRoundTrip(t *testing.T) {
	for _, tc := range reproCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.cfg.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			args := tc.cfg.ReproFlags()
			parsed, err := ParseRepro(args)
			if err != nil {
				t.Fatalf("ParseRepro(%q): %v", args, err)
			}
			got, err := parsed.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip mismatch\n args: %q\n got:  %+v\n want: %+v", args, got, want)
			}
		})
	}
}

// TestReproShellQuoting: the one-line form must quote arguments a shell would
// mangle (network profile names contain parentheses) and leave plain ones bare.
func TestReproShellQuoting(t *testing.T) {
	cfg := Config{PairsPerMap: 10, Network: "IPoIB-QDR(32Gbps)"}
	line := cfg.Repro()
	if !strings.Contains(line, "'IPoIB-QDR(32Gbps)'") {
		t.Errorf("network profile not quoted in %q", line)
	}
	if strings.Contains(line, "'MR-AVG'") {
		t.Errorf("plain argument needlessly quoted in %q", line)
	}
}

// goldenDump renders what the engines, the sweep cache and a repro line see
// of one configuration: the normalized Config as JSON (the encoding simcache
// keys hash) and the job conf it materializes, sorted by key. The normalize
// line is left out when the raw config carries ExtraConf: an override naming
// a key a knob owns is folded into that knob's field, so only the conf it
// produces is pinned there.
func goldenDump(t *testing.T, name string, cfg Config) string {
	t.Helper()
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	if len(cfg.ExtraConf) == 0 {
		js, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "normalize %s\n", js)
	}
	conf := n.HadoopConf()
	for _, k := range conf.Keys() {
		fmt.Fprintf(&b, "  %s=%s\n", k, conf.Get(k, ""))
	}
	return b.String()
}

// checkGolden compares got against the named file under testdata/, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := "testdata/" + file
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the current code (rerun with -update only if the change is intended)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestConfigGolden pins Normalize and HadoopConf for the hand-written cases
// against the values captured before the knob table replaced the per-knob
// ladders: a row that defaults, formats or maps to its conf key differently
// than the code it replaced shows up here byte for byte.
func TestConfigGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range reproCases {
		b.WriteString(goldenDump(t, tc.name, tc.cfg))
	}
	checkGolden(t, "repro_cases.golden", b.String())
}
