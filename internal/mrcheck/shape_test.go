package mrcheck

import (
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"mrmicro/internal/apps"
	"mrmicro/internal/costmodel"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/microbench"
	"mrmicro/internal/mrsim"
)

// envOnlyValues gives every environment-only knob two valid settings; the
// property below moves a config to the first one it is not already at.
var envOnlyValues = map[string][2]string{
	"slaves":         {"2", "3"},
	"engine":         {"yarn", "mrv1"},
	"cluster":        {"B", "A"},
	"network":        {"10GigE", "1GigE"},
	"slowstart":      {"0.3", "0.7"},
	"parallelcopies": {"2", "7"},
	"shufflemem":     {"4096", "8192"},
	"mergefactor":    {"3", "5"},
	"iosortmb":       {"2", "3"},
	"spillpercent":   {"0.4", "0.6"},
	"syncspill":      {"true", "false"},
	"codec":          {"deflate", ""},
	"rdma":           {"true", "false"},
}

// sharesMatrix reports whether two specs of one Sweep alias one matrix, which
// they do exactly when their configurations have the same data-shape key.
func sharesMatrix(a, b *mrsim.JobSpec) bool { return &a.Partitions[0] == &b.Partitions[0] }

func matrixOf(s *mrsim.JobSpec) []any {
	return []any{s.Partitions, s.PostCombine, s.TypeFactor, s.MapOutputRawBytes, s.MapInputRecords, s.MapInputBytes}
}

var inputSeed = regexp.MustCompile(`seed=(\d+)`)

// TestMatrixSharingProperty: over 200 generated configurations (synthetic and
// workload, fault plans on), moving any one environment-only field to another
// valid value keeps the point on the same shared matrix — and a spec built
// from scratch for the moved config has a deep-equal one — while moving any
// field of the data shape takes the point off it.
func TestMatrixSharingProperty(t *testing.T) {
	for _, k := range microbench.Knobs {
		if _, ok := envOnlyValues[k.Name]; ok != k.EnvOnly {
			t.Fatalf("knob -%s: environment-only = %t, has values to move to = %t", k.Name, k.EnvOnly, ok)
		}
	}
	var envMoves, shapeMoves int
	for i := 0; i < 200; i++ {
		// Normalized, so task counts no longer default from the slave count.
		cfg, err := Generate(goldenSeed, i, GenOptions{Faults: true}).Normalize()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		sweep := new(microbench.Sweep)
		base, err := sweep.Spec(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}

		env := map[string]microbench.Config{}
		for name, values := range envOnlyValues {
			moved := cfg
			value := values[0]
			if microbench.KnobByName(name).Get(&moved) == value {
				value = values[1]
			}
			if err := microbench.KnobByName(name).Set(&moved, value); err != nil {
				t.Fatalf("config %d: -%s %s: %v", i, name, value, err)
			}
			env["-"+name] = moved
		}
		moved := cfg
		moved.Faults = &faultinject.Plan{Seed: 5, ShuffleDropRate: 0.1}
		if cfg.Faults != nil {
			moved.Faults = nil
		}
		env["Faults"] = moved
		moved = cfg
		moved.Model = costmodel.Default()
		moved.Model.MapByteCPU *= 2
		env["Model"] = moved
		moved = cfg
		moved.MonitorInterval = time.Second
		env["MonitorInterval"] = moved
		for name, moved := range env {
			spec, err := sweep.Spec(moved)
			if err != nil {
				t.Fatalf("config %d, %s moved: %v", i, name, err)
			}
			if !sharesMatrix(base, spec) {
				t.Fatalf("config %d: moving %s took the point off the shared matrix\n%s", i, name, cfg.ReproFlags())
			}
			alone, err := microbench.BuildSpec(moved)
			if err != nil {
				t.Fatalf("config %d, %s moved: %v", i, name, err)
			}
			if !reflect.DeepEqual(matrixOf(alone), matrixOf(base)) {
				t.Fatalf("config %d: moving %s changed the matrix\n%s", i, name, cfg.ReproFlags())
			}
			envMoves++
		}

		shape := map[string]microbench.Config{}
		moved = cfg
		moved.Seed++
		shape["Seed"] = moved
		moved = cfg
		moved.Pattern = microbench.MRRand
		if cfg.Pattern == microbench.MRRand {
			moved.Pattern = microbench.MRSkew
		}
		shape["Pattern"] = moved
		moved = cfg
		moved.PairsPerMap++
		shape["PairsPerMap"] = moved
		moved = cfg
		moved.NumReduces++
		shape["NumReduces"] = moved
		if cfg.Workload != apps.InvIndex && cfg.Workload != apps.HSSort {
			moved = cfg
			moved.Combine = !cfg.Combine
			shape["Combine"] = moved
		}
		if cfg.Workload == apps.WordCount || cfg.Workload == apps.InvIndex {
			moved = cfg
			moved.Workload, moved.GrepPattern = apps.Grep, "the"
			shape["Workload"] = moved
		}
		if cfg.InputSpec != "" {
			moved = cfg
			moved.InputSpec = inputSeed.ReplaceAllStringFunc(cfg.InputSpec, func(m string) string {
				n, _ := strconv.Atoi(m[len("seed="):])
				return "seed=" + strconv.Itoa(n+1)
			})
			shape["InputSpec"] = moved
		}
		for name, moved := range shape {
			spec, err := sweep.Spec(moved)
			if err != nil {
				t.Fatalf("config %d, %s moved: %v", i, name, err)
			}
			if sharesMatrix(base, spec) {
				t.Fatalf("config %d: moving %s left the point on the same matrix\n%s", i, name, cfg.ReproFlags())
			}
			shapeMoves++
		}
	}
	t.Logf("%d environment-only moves shared, %d data-shape moves did not", envMoves, shapeMoves)
}
