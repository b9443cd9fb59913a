package microbench

import (
	"fmt"

	"mrmicro/internal/apps"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/inputformat"
)

// Draws is a byte stream read as the choices of a configuration draw. An
// exhausted stream reads as zeros, and a zero is always the simplest
// outcome: a knob keeps its default, a choice is the first, a range gives
// its bottom. So whoever supplies the bytes — mrcheck's seeded generator or
// the Go fuzzer — empty input decodes to the simplest configuration, and a
// minimizer that zeroes bytes simplifies the configuration as mrcheck's
// shrinker does.
type Draws []byte

func (d *Draws) next() (b uint64) {
	if len(*d) > 0 {
		b, *d = uint64((*d)[0]), (*d)[1:]
	}
	return b
}

// Below reads a number in [0, n), n >= 1, from as many bytes as it takes
// to cover n.
func (d *Draws) Below(n int64) int64 {
	var v uint64
	for span := uint64(1); span != 0 && span < uint64(n); span <<= 8 {
		v = v<<8 | d.next()
	}
	return int64(v % uint64(n))
}

// keeps reads whether a knob keeps its default: with chance p, and always
// on a zero byte.
func (d *Draws) keeps(p float64) bool { return float64(d.next()) < max(1, p*256) }

// logUniform reads a value in [lo, hi] (lo >= 1): an octave uniformly, then
// a value uniformly within it, so small values are as likely as large ones
// without all being powers of two.
func (d *Draws) logUniform(lo, hi int64) int64 {
	octaves := int64(0)
	for lo<<octaves < hi {
		octaves++
	}
	v := min(lo<<d.Below(octaves+1), hi)
	base := max(lo, v/2)
	return base + d.Below(v-base+1)
}

// Config decodes a configuration by walking Knobs: a row with a draw reads
// its value from d, every other row keeps its default. The rest is what a
// row cannot say on its own: which rows a workload reads, the workload's
// input, and that a fault plan strikes the in-process engines somewhere.
// The synthetic benchmark's PairsPerMap is left to the caller, which knows
// its byte budget.
func (d *Draws) Config() Config {
	c := Config{Faults: &faultinject.Plan{}}
	for _, k := range Knobs {
		_ = k.set(&c, k.Draw(d)) // a row's default and draws always parse
	}
	unset := func(names ...string) {
		for _, name := range names {
			k := KnobByName(name)
			_ = k.set(&c, k.Default)
		}
	}
	switch c.Workload {
	case "":
		unset("splitsize", "grep")
	case apps.HSSort:
		// Rows the gen stage would commit, materialized up front.
		unset("pattern", "datatype", "keysize", "valuesize", "combine", "splitsize", "grep")
		c.NumMaps, c.PairsPerMap = c.defaulted().NumMaps, 8+d.Below(57)
		c.InputSpec = fmt.Sprintf("hs:seed=%d,maps=%d,rows=%d", c.Seed, c.NumMaps, c.PairsPerMap)
	default:
		// A generated text corpus: real inputs own their split geometry.
		unset("pattern", "datatype", "keysize", "valuesize", "maps")
		if c.Workload != apps.Grep {
			unset("grep")
		}
		if c.Workload == apps.InvIndex {
			unset("combine")
		}
		c.InputSpec = inputformat.TextSpec{
			Seed:  c.Seed,
			Files: 1 + int(d.Below(3)),
			Bytes: d.logUniform(256, 8<<10),
			Shape: inputformat.TextShapes[d.Below(int64(len(inputformat.TextShapes)))],
		}.String()
	}
	// The in-process engines ignore process-level faults: a plan holding
	// only those also drops shuffle fetches.
	if p := *c.Faults; p.ProcEnabled() {
		p.WorkerKillRate, p.PartitionRate = 0, 0
		if !p.Enabled() {
			drop := KnobByName("fault-shuffle-drop")
			_ = drop.set(&c, drop.pick(d))
		}
	}
	c.settlePlan()
	return c
}
