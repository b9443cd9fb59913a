package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of vs (mean of the two middle values for an
// even count); 0 for none.
func median[T float64 | time.Duration](vs []T) T {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1 and q3 the way Python's statistics.quantiles(vs, n=4)
// does (exclusive method) — the driver's spread is (q3-q1)/median. Fewer than
// two values have no spread.
func quartiles(vs []float64) (q1, q3 float64) {
	m := len(vs)
	if m < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// summary is one timing as the README promises it: median with the sample
// count, quartiles and extremes. No tail percentile is claimed — a run holds
// at most a few dozen jobs.
type summary struct {
	N                        int
	Median, Q1, Q3, Min, Max float64
}

func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := summary{N: len(vs), Median: median(vs), Min: vs[0], Max: vs[0]}
	s.Q1, s.Q3 = quartiles(vs)
	for _, v := range vs {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("median %.3f  q1 %.3f  q3 %.3f  min %.3f  max %.3f  n=%d", s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// mbPerS is bytes moved in d, in MiB/s.
func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / mib / d.Seconds()
}

// cpuSeconds is user+system CPU time of this process and of every child it
// has waited for (distrun workers are reaped by the pool before Run returns).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	return total
}

// gcCPUSeconds is the CPU time this process's garbage collector has used, as
// the runtime estimates it at the end of each cycle.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMiB is this process's high-water RSS (VmHWM) plus the largest reaped
// child's, so dist-avg's worker processes are not invisible.
func peakRSSMiB() float64 {
	var kb int64
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		kb += ru.Maxrss
	}
	return float64(kb) / 1024
}

// liveChildren lists processes whose parent is this one. A job that returns
// must have reaped every worker it spawned.
func liveChildren() []int {
	self := os.Getpid()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []int
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // exited between the glob and the read
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut at the last ')'.
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid == self && f[0] != "Z" {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
			out = append(out, pid)
		}
	}
	return out
}

// fsType names the filesystem holding dir (spill, run and part files land
// there, so an A/A report records it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
