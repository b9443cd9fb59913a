// Package leakcheck is test support for the real engines: a test that runs a
// job must leave the process as it found it, with no goroutine, no open file
// descriptor and no temp path outliving the job.
package leakcheck

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// inputCache is the input-corpus cache inputformat.Materialize keeps in the
// temp dir on purpose; it is the one entry a job may leave there.
const inputCache = "mrmicro-input"

// ReapGrace is the grace of a test that spawns worker processes, whose
// goroutines may still be ending when the job has returned.
const ReapGrace = 2 * time.Second

// Check points TMPDIR at a fresh directory for the rest of t, and returns it.
// It snapshots the goroutine count and the open file descriptors, and when t
// and its subtests end it fails t if more goroutines are running, if a
// descriptor is open that was not, or if anything but inputCache is left in
// the directory. grace is how long to wait for the counts to return:
// ReapGrace for a test that spawns worker processes, 0 for one that runs
// jobs in process.
//
// Check sets an environment variable, so t and its parents must not be
// parallel; a test whose subtests are calls it on the parent.
func Check(t testing.TB, grace time.Duration) string {
	t.Helper()
	warmNetpoll.Do(func() {
		// The network poller opens its descriptors on the first socket and
		// keeps them for the life of the process.
		if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
			ln.Close()
		}
	})
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	goroutines, _ := liveGoroutines()
	fds := openFDs()
	t.Cleanup(func() {
		var n int
		var dump string
		var extraFDs []string
		for deadline := time.Now().Add(grace); ; time.Sleep(10 * time.Millisecond) {
			n, dump = settledGoroutines(goroutines)
			extraFDs = newFDs(fds)
			if n <= goroutines && len(extraFDs) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if n > goroutines {
			t.Errorf("%d goroutines more than before the test:\n%s", n-goroutines, dump)
		}
		for _, fd := range extraFDs {
			t.Errorf("descriptor left open: %s", fd)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("reading TMPDIR: %v", err)
		}
		for _, e := range left {
			if e.Name() != inputCache {
				t.Errorf("left in TMPDIR: %s", e.Name())
			}
		}
	})
	return dir
}

var warmNetpoll sync.Once

// settledGoroutines is liveGoroutines once the goroutines that are ending
// have ended. A goroutine that has released its waiter (the last Done of a
// WaitGroup, a send on a result channel) still runs the rest of that call;
// under the race detector the waiter is often checked first. So while the
// count is above want, it yields and counts again, at most 100 times: no
// clock is read, and a goroutine that is still there is left over.
func settledGoroutines(want int) (int, string) {
	n, dump := liveGoroutines()
	for i := 0; i < 100 && n > want; i++ {
		runtime.Gosched()
		n, dump = liveGoroutines()
	}
	return n, dump
}

// liveGoroutines counts the goroutines running code outside the runtime and
// the testing package, and returns their stacks. One with only such frames
// has returned from its function and is exiting, or is a finished subtest's
// runner reporting to its parent: runtime.NumGoroutine counts both, this
// does not.
func liveGoroutines() (int, string) {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var live []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		// After its header, a stack alternates function and file lines;
		// "created by" names the parent, not a frame of g.
		lines := strings.Split(g, "\n")
		for _, fn := range lines[1:] {
			if fn != "" && fn[0] != '\t' && !strings.HasPrefix(fn, "created by ") &&
				!strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "testing.") {
				live = append(live, g)
				break
			}
		}
	}
	return len(live), strings.Join(live, "\n\n")
}

// openFDs maps each open descriptor of this process to what it refers to;
// nil where the platform has no /proc/self/fd, which skips the check.
func openFDs() map[string]string {
	const fdDir = "/proc/self/fd"
	ents, err := os.ReadDir(fdDir)
	if err != nil {
		return nil
	}
	fds := make(map[string]string, len(ents))
	for _, e := range ents {
		// The descriptor ReadDir itself held is gone by now: Readlink fails.
		if target, err := os.Readlink(filepath.Join(fdDir, e.Name())); err == nil {
			fds[e.Name()] = target
		}
	}
	return fds
}

// newFDs lists the descriptors open now that were not open, or referred to
// something else, at before.
func newFDs(before map[string]string) []string {
	if before == nil {
		return nil
	}
	var extra []string
	for fd, target := range openFDs() {
		if before[fd] != target {
			extra = append(extra, fd+" -> "+target)
		}
	}
	return extra
}
