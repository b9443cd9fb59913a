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
const argsEnv = "MRCOORD_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		flag.CommandLine = flag.NewFlagSet("mrcoord", flag.ExitOnError)
		os.Args = append([]string{"mrcoord"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mrcoord runs the tool with args and returns its combined output and
// whether it exited zero.
func mrcoord(t *testing.T, args string) (string, bool) {
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
	got, _ := mrcoord(t, "-h")
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
