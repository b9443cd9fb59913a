package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile is the -cpuprofile / -memprofile flag pair: profiling belongs to
// the job harness, so every binary that runs jobs binds it the same way.
type Profile struct {
	cpu, mem string
}

// BindProfileFlags registers -cpuprofile and -memprofile on fs.
func BindProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file when the run ends")
	return p
}

// Start begins the CPU profile if one was asked for and returns the function
// that ends the run's profiling: it stops the CPU profile and writes the
// allocation profile (after a GC, so the live-heap view is current; the
// alloc_space / alloc_objects views cover the whole run either way).
func (p *Profile) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		if cpuFile, err = os.Create(p.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if p.mem == "" {
			return nil
		}
		f, err := os.Create(p.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
