package leakcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recorder is a testing.TB whose failures and cleanups are its own, so that
// a test can end it and read Check's verdict. TempDir and Setenv stay the
// real test's.
type recorder struct {
	testing.TB
	errs     []string
	cleanups []func()
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

// end runs the cleanups, last registered first, and returns the failures.
func (r *recorder) end() []string {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	return r.errs
}

// TestCheckFindsEachLeak: Check passes a test that leaves nothing behind
// (the input cache aside) and names a goroutine, a descriptor and a temp path
// that outlive it. A goroutine that ends within the grace is no leak.
func TestCheckFindsEachLeak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grace time.Duration
		leak  func(t *testing.T, tmp string) (undo func())
		want  string
	}{
		{"nothing", 0, func(*testing.T, string) func() { return func() {} }, ""},
		{"input cache", 0, func(t *testing.T, tmp string) func() {
			if err := os.Mkdir(filepath.Join(tmp, inputCache), 0o755); err != nil {
				t.Fatal(err)
			}
			return func() {}
		}, ""},
		{"goroutine", 0, func(*testing.T, string) func() {
			stop := make(chan struct{})
			go func() { <-stop }()
			return func() { close(stop) }
		}, "1 goroutines more"},
		{"goroutine within the grace", time.Second, func(*testing.T, string) func() {
			go time.Sleep(50 * time.Millisecond)
			return func() {}
		}, ""},
		{"descriptor", 0, func(t *testing.T, tmp string) func() {
			f, err := os.Open(tmp)
			if err != nil {
				t.Fatal(err)
			}
			return func() { f.Close() }
		}, "descriptor left open"},
		{"temp path", 0, func(t *testing.T, tmp string) func() {
			dir, err := os.MkdirTemp("", "mrmicro-job-")
			if err != nil || !strings.HasPrefix(dir, tmp) {
				t.Fatalf("MkdirTemp made %q (%v), want it under %s", dir, err, tmp)
			}
			return func() {}
		}, "left in TMPDIR: mrmicro-job-"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == "descriptor left open" {
				if _, err := os.ReadDir("/proc/self/fd"); err != nil {
					t.Skip("no /proc/self/fd")
				}
			}
			r := &recorder{TB: t}
			undo := tc.leak(t, Check(r, tc.grace))
			errs := r.end()
			undo()
			if tc.want == "" && len(errs) > 0 {
				t.Errorf("Check failed a clean test: %q", errs)
			}
			if tc.want != "" && (len(errs) == 0 || !strings.Contains(errs[0], tc.want)) {
				t.Errorf("Check reported %q, want %q", errs, tc.want)
			}
		})
	}
}
