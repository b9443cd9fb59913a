package mrcheck

import (
	"strconv"

	"mrmicro/internal/microbench"
)

// maxShrinkRuns bounds the shrinker's invariant re-evaluations so a pathological
// failure can't spin the reporter forever.
const maxShrinkRuns = 200

// Shrink greedily minimizes a failing configuration: it applies one
// simplifying edit at a time — drop the fault plan, strip conf overrides,
// then each row of microbench.Knobs by its shrink step (reset to the
// simplest value; bisect counts and sizes toward 1) — keeping a candidate
// only when it still fails, and repeats to a fixed point. failing must
// report whether a config violates an invariant (any invariant: a failure
// that shape-shifts while shrinking is still a failure).
func Shrink(cfg microbench.Config, failing func(microbench.Config) bool) microbench.Config {
	runs := 0
	improved := false
	// keep applies edit to a copy of cfg and adopts the copy when the edit
	// changed something and the result still fails.
	keep := func(edit func(*microbench.Config) bool) bool {
		candidate := cfg
		if !edit(&candidate) || runs >= maxShrinkRuns {
			return false
		}
		if _, err := candidate.Normalize(); err != nil {
			return false
		}
		runs++
		if !failing(candidate) {
			return false
		}
		cfg, improved = candidate, true
		return true
	}

	for {
		improved = false
		// Whole subsystems first: fault injection, then the conf overrides
		// (restores default sort buffer / merge fan-in).
		keep(func(c *microbench.Config) bool {
			changed := c.Faults != nil
			c.Faults = nil
			return changed
		})
		keep(func(c *microbench.Config) bool {
			changed := c.ExtraConf != nil
			c.ExtraConf = nil
			return changed
		})
		// Resets before the bisections: each deletes a mechanism from the
		// repro (codec, combiner, overlap, bounded merge, one fault site at a
		// time), where a bisection only makes it cheaper.
		for _, k := range microbench.Knobs {
			if k.Shrink == microbench.ShrinkReset && !(k.Fault && cfg.Faults == nil) {
				keep(k.Reset)
			}
		}
		for _, k := range microbench.Knobs {
			if k.Shrink != microbench.ShrinkHalve {
				continue
			}
			// Cut the distance to 1 by halves, then quarters, down to single
			// decrements: a failure needing >= 2 reducers survives 3 but not
			// 3/2 = 1, and the last step finds 2.
			v, _ := strconv.ParseInt(k.Get(&cfg), 10, 64)
			for d := v / 2; d >= 1; d /= 2 {
				for v-d >= 1 && keep(func(c *microbench.Config) bool { return k.Set(c, strconv.FormatInt(v-d, 10)) == nil }) {
					v -= d
				}
			}
		}
		if !improved || runs >= maxShrinkRuns {
			return cfg
		}
	}
}
