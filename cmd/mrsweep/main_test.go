package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mrmicro/internal/figures"
)

var update = flag.Bool("update", false, "rewrite testdata/list.golden from the current code")

// argsEnv carries a command line to a re-executed copy of this test binary,
// which then runs main with it instead of the tests: the tool's real flag
// set, exit codes and output, without building a second binary.
const argsEnv = "MRSWEEP_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		flag.CommandLine = flag.NewFlagSet("mrsweep", flag.ExitOnError)
		os.Args = append([]string{"mrsweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mrsweep runs the tool with args and returns its combined output and exit
// code.
func mrsweep(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestListGolden pins the figure list — ids, titles, order — that -list
// prints and that a bare mrsweep prints before exiting 2.
func TestListGolden(t *testing.T) {
	got, code := mrsweep(t, "-list")
	if code != 0 {
		t.Fatalf("mrsweep -list exited %d", code)
	}
	if *update {
		if err := os.WriteFile("testdata/list.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-list text changed\n got:\n%s\nwant:\n%s", got, want)
	}
	if bare, code := mrsweep(t, ""); bare != got || code != 2 {
		t.Errorf("bare mrsweep: exit %d, want 2 and the -list text; got\n%s", code, bare)
	}
}

// TestFigureUsageNamesEveryFigure: the -figure usage string is derived from
// the registry, so a new figure cannot be missing from -h.
func TestFigureUsageNamesEveryFigure(t *testing.T) {
	help, _ := mrsweep(t, "-h")
	for _, f := range figures.All() {
		if !strings.Contains(help, f.ID+",") && !strings.Contains(help, f.ID+")") {
			t.Errorf("-h does not name figure %s:\n%s", f.ID, help)
		}
	}
	if out, code := mrsweep(t, "-figure fig99"); code != 1 || !strings.Contains(out, `unknown figure "fig99"`) {
		t.Errorf("mrsweep -figure fig99: exit %d, output %q", code, out)
	}
}
