package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mrmicro/internal/distrun"
	"mrmicro/internal/faultinject"
	"mrmicro/internal/microbench"
)

// argsEnv carries a command line to a re-executed copy of this test binary,
// which then runs main with it instead of the tests.
const argsEnv = "MRWORKER_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		flag.CommandLine = flag.NewFlagSet("mrworker", flag.ExitOnError)
		os.Args = append([]string{"mrworker"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInterruptEndsWorkerCleanly: a worker stalled mid-job (a partition at
// its first task's pickup, far longer than the test) and then sent SIGINT
// returns promptly, leaves nothing in its temp dir and still writes its CPU
// profile.
func TestInterruptEndsWorkerCleanly(t *testing.T) {
	cfg, err := microbench.ParseRepro(strings.Fields("-pairs 300 -kv 32 -maps 2 -reduces 1"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faultinject.Plan{Partitions: map[int]int{0: 0}, PartitionDuration: time.Hour}
	coord, err := distrun.NewCoordinator(cfg, &distrun.Options{WorkerTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	dir := t.TempDir()
	tmp, prof := filepath.Join(dir, "tmp"), filepath.Join(dir, "cpu.prof")
	if err := os.Mkdir(tmp, 0o700); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"=-coord "+coord.Addr()+" -cpuprofile "+prof, "TMPDIR="+tmp)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Progress().MapsRunning == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("the worker never took a map")
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("the worker did not end within 5 s of SIGINT")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile: %v, want a non-empty file", err)
	}
	if left, _ := os.ReadDir(tmp); len(left) > 0 {
		t.Errorf("left in TMPDIR: %v", left)
	}
}
