package microbench

import (
	"errors"
	"maps"
	"reflect"
	"strings"
	"testing"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
)

// notKnobs are the exported Config and faultinject.Plan fields no flag can
// set, so no row owns them.
var notKnobs = []string{
	"ExtraConf", "Faults", "Model", "MonitorInterval", // Config
	"Plan.MapFailures", "Plan.ReduceFailures", "Plan.WorkerKills", "Plan.Partitions",
}

// TestKnobTableCoversConfig holds the table to the structs it describes:
// every exported field of Config and faultinject.Plan is written by exactly
// one row or is on the exclusion list above. A field added without a row
// fails here.
func TestKnobTableCoversConfig(t *testing.T) {
	owner := map[string]string{}
	for _, k := range Knobs {
		// Find a value the row parses and that moves its field off zero.
		var changed []string
		for _, probe := range []string{"7", "true", "7s"} {
			c := Config{Faults: &faultinject.Plan{}}
			if k.set(&c, probe) != nil {
				continue
			}
			changed = append(diffFields("", c, Config{}, "Faults"), diffFields("Plan.", *c.Faults, faultinject.Plan{})...)
			if len(changed) > 0 {
				break
			}
		}
		if len(changed) != 1 {
			t.Errorf("-%s writes fields %v, want exactly one", k.Name, changed)
			continue
		}
		if prev, dup := owner[changed[0]]; dup {
			t.Errorf("field %s is owned by both -%s and -%s", changed[0], prev, k.Name)
		}
		owner[changed[0]] = k.Name
		if isPlan := strings.HasPrefix(changed[0], "Plan."); isPlan != k.Fault {
			t.Errorf("-%s writes %s but Fault=%v", k.Name, changed[0], k.Fault)
		}
	}
	for _, f := range notKnobs {
		if k, owned := owner[f]; owned {
			t.Errorf("field %s is on the exclusion list but -%s owns it", f, k)
		}
		owner[f] = "(excluded)"
	}
	fields := append(fieldNames("", reflect.TypeOf(Config{})), fieldNames("Plan.", reflect.TypeOf(faultinject.Plan{}))...)
	for _, f := range fields {
		if owner[f] == "" {
			t.Errorf("field %s has no row in Knobs and is not on the exclusion list", f)
		}
		delete(owner, f)
	}
	for f := range owner {
		t.Errorf("exclusion list names %s, which is not a field", f)
	}
}

func fieldNames(prefix string, typ reflect.Type) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			out = append(out, prefix+typ.Field(i).Name)
		}
	}
	return out
}

// diffFields names the exported fields (skip aside) that differ between two
// values of one struct type.
func diffFields(prefix string, a, b any, skip ...string) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if len(skip) > 0 && name == skip[0] {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, prefix+name)
		}
	}
	return out
}

// TestConfFoldsIntoKnob pins the -conf rule: an override naming a key a knob
// owns lands in the knob's field (winning over the flag) and leaves
// ExtraConf; any other key passes through raw; the caller's map is never
// edited.
func TestConfFoldsIntoKnob(t *testing.T) {
	extra := map[string]string{
		mapreduce.ConfNumReduces:           "3",
		mapreduce.ConfShuffleInputBufBytes: "64KB",
		mapreduce.ConfSpillOverlap:         "false",
		mapreduce.ConfCompressMapOut:       "true",
		mapreduce.ConfMapSlots:             "2",
	}
	before := maps.Clone(extra)
	n, err := Config{PairsPerMap: 10, NumReduces: 8, ExtraConf: extra}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumReduces != 3 || n.ShuffleMemBudget != 64<<10 || !n.SyncSpill || n.Codec != "deflate" {
		t.Errorf("folded config: reduces=%d budget=%d syncspill=%v codec=%q", n.NumReduces, n.ShuffleMemBudget, n.SyncSpill, n.Codec)
	}
	if want := map[string]string{mapreduce.ConfMapSlots: "2"}; !maps.Equal(n.ExtraConf, want) {
		t.Errorf("ExtraConf after folding = %v, want only the pass-through key %v", n.ExtraConf, want)
	}
	if !maps.Equal(extra, before) {
		t.Errorf("Normalize edited the caller's ExtraConf: %v", extra)
	}
	if again, err := n.Normalize(); err != nil || !reflect.DeepEqual(again, n) {
		t.Errorf("Normalize is not idempotent: %+v, %v", again, err)
	}

	// The codec key alone names a codec without turning compression on, and
	// compress=false wins over -codec.
	for _, tc := range []struct {
		codec string
		extra map[string]string
		want  string
	}{
		{"", map[string]string{mapreduce.ConfCompressCodec: "deflate"}, ""},
		{"deflate", map[string]string{mapreduce.ConfCompressMapOut: "false"}, ""},
		{"", map[string]string{mapreduce.ConfCompressMapOut: "true", mapreduce.ConfCompressCodec: "deflate"}, "deflate"},
	} {
		n, err := Config{PairsPerMap: 10, Codec: tc.codec, ExtraConf: tc.extra}.Normalize()
		if err != nil || n.Codec != tc.want || n.ExtraConf != nil {
			t.Errorf("-codec %q with %v: codec %q extra %v err %v, want codec %q", tc.codec, tc.extra, n.Codec, n.ExtraConf, err, tc.want)
		}
	}
}

// TestConflictingSpellingsAgreeAcrossEngines is the regression for the
// divergence one spelling removes: `-reduces 8 -conf mapreduce.job.reduces=3`
// used to simulate 8 reduce tasks and execute 3.
func TestConflictingSpellingsAgreeAcrossEngines(t *testing.T) {
	cfg, err := ParseRepro([]string{"-pairs", "100", "-kv", "10", "-reduces", "8", "-conf", mapreduce.ConfNumReduces + "=3"})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := BuildJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	real, err := localrun.Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sim.Report.ReduceEnds); got != 3 || real.NumReduces != 3 {
		t.Errorf("simulated %d reduce tasks, executed %d; -conf says 3 for both", got, real.NumReduces)
	}
}

// TestSimNeverPanicsOnConf: a malformed or out-of-range conf value — in a
// key a knob owns or in one the simulated engines read lazily inside a sim
// proc — comes back from Run as a *mapreduce.JobError before the simulation
// starts, on both engines.
func TestSimNeverPanicsOnConf(t *testing.T) {
	for key, value := range map[string]string{
		mapreduce.ConfIOSortFactor:         "abc",
		mapreduce.ConfIOSortMB:             "-1",
		mapreduce.ConfSortSpillPercent:     "1.5",
		mapreduce.ConfSlowstartMaps:        "2",
		mapreduce.ConfParallelCopies:       "many",
		mapreduce.ConfShuffleInputBufBytes: "-4096",
		mapreduce.ConfSpillOverlap:         "maybe",
		mapreduce.ConfCompressMapOut:       "yes please",
		mapreduce.ConfMapSlots:             "x",
		mapreduce.ConfReduceSlots:          "0",
		mapreduce.ConfReduceMemoryMB:       "1g",
		mapreduce.ConfNodeMemoryMB:         "lots",
		mapreduce.ConfSpeculative:          "maybe",
		mapreduce.ConfCompressRatio:        "half",
		mapreduce.ConfSpillInflight:        "q",
		mapreduce.ConfShuffleMergePct:      "z",
	} {
		for _, engine := range []Engine{EngineMRv1, EngineYARN} {
			_, err := Run(Config{PairsPerMap: 10, Engine: engine, ExtraConf: map[string]string{key: value}})
			var jobErr *mapreduce.JobError
			if !errors.As(err, &jobErr) {
				t.Errorf("%s: %s=%s: got %v, want a *mapreduce.JobError", engine, key, value, err)
			}
		}
	}
	// io.sort.factor=1 was rejected by the real executor and silently
	// simulated; the table holds both to a fan-in of at least 2.
	if _, err := Run(Config{PairsPerMap: 10, ExtraConf: map[string]string{mapreduce.ConfIOSortFactor: "1"}}); err == nil {
		t.Error("simulated a merge fan-in of 1")
	}
}
