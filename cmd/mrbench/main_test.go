package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/help.golden from the current code")

// argsEnv carries a command line to a re-executed copy of this test binary,
// which then runs main with it instead of the tests: the tool's real flag
// set, exit codes and output, without building a second binary.
const argsEnv = "MRBENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		flag.CommandLine = flag.NewFlagSet("mrbench", flag.ExitOnError)
		os.Args = append([]string{"mrbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mrbench runs the tool with args and returns its combined output and
// whether it exited zero.
func mrbench(t *testing.T, args string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), err == nil
}

// TestHelpGolden pins the -h text against the capture taken before the knob
// table replaced the hand-written flag bindings: flag names, types, defaults
// and usage strings are the tool's interface.
func TestHelpGolden(t *testing.T) {
	got, _ := mrbench(t, "-h")
	if *update {
		if err := os.WriteFile("testdata/help.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-h text changed\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestConfSpellingAtTheCLI drives the -conf rule end to end: a knob spelled
// through its Hadoop key is the same job on the simulator and under -local,
// the -local report shows the effective value, and a bad value is an error
// message and a non-zero exit on either path, never a panic.
func TestConfSpellingAtTheCLI(t *testing.T) {
	const job = "-pairs 100 -kv 10 "
	for _, mode := range []string{"", "-local "} {
		out, ok := mrbench(t, mode+job+"-reduces 8 -conf mapreduce.job.reduces=3")
		if !ok || !strings.Contains(out, "16 / 3\n") {
			t.Errorf("mrbench %s-reduces 8 -conf mapreduce.job.reduces=3: want 16 / 3 map/reduce tasks, got (ok=%v)\n%s", mode, ok, out)
		}
		out, ok = mrbench(t, mode+job+"-conf mapreduce.task.io.sort.factor=abc")
		if ok || strings.Contains(out, "panic:") || !strings.Contains(out, "mapreduce.task.io.sort.factor") {
			t.Errorf("mrbench %s-conf mapreduce.task.io.sort.factor=abc: want an error naming the key, got (ok=%v)\n%s", mode, ok, out)
		}
	}
	out, _ := mrbench(t, "-local "+job+"-conf mapreduce.reduce.shuffle.input.buffer.bytes=4096")
	if !strings.Contains(out, "(budget 4096 bytes)") {
		t.Errorf("-local report does not show the budget set through -conf:\n%s", out)
	}
}
