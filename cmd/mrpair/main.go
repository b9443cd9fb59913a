// Command mrpair runs the repository benchmark on two commits in alternating
// pairs and judges every end-to-end metric by the pair rule: a side wins a
// metric when it reads better in at least nine of ten pairs and the medians
// are further apart than the parent's q1–q3.
//
//	mrpair [-workload W[,W...]] [-pairs 10] [-seconds S] [-seed N] <parent> <change>
//	mrpair HEAD HEAD -workload sim-figs -pairs 3    # an A/A check: must say level
//	mrpair HEAD .                                   # the working tree against its commit
//
// Each commit is checked out with `git worktree` under .bench_build/mrpair/,
// and that commit's own bench/ module is built with bench/run.sh's offline
// environment. A side that names a directory is a working tree of the
// repository, uncommitted changes and all: it is built and run where it is,
// and never removed. Every row records each side's git tree hashes of
// internal, cmd, bench and go.mod (a directory's hashed through a scratch
// index), so a row measured on a working tree can be matched to the commit
// that lands it. The binaries then run directly, sides alternating which goes
// first, each pair on a fresh seed. Besides each metric mrpair reports the
// CPU per job (the bench process's user+system time from wait4, divided by
// the jobs it attempted) and its peak RSS. Each verdict is appended as one
// row to BENCH_trajectory.json at the root of the checkout mrpair runs in.
// The worktrees are removed on every exit path, interrupts included.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workloads  []string
	pairs      int
	seconds    float64
	seed       int64
	trajectory string
	revs       [2]string // parent, change
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrpair:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrpair:", err)
		os.Exit(1)
	}
}

// parseArgs takes flags before, between and after the two revisions, as in
// `mrpair HEAD HEAD -workload sim-figs -pairs 3`.
func parseArgs(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("mrpair", flag.ContinueOnError)
	workloads := fs.String("workload", "", "workloads to pair, comma separated; empty: every workload BENCHMARK.json declares")
	fs.IntVar(&o.pairs, "pairs", 10, "pairs of runs per workload")
	fs.Float64Var(&o.seconds, "seconds", 0, "timed seconds per run; 0: BENCHMARK.json's run_seconds")
	fs.Int64Var(&o.seed, "seed", 0, "seed of the first pair, the next pairs counting up; 0: drawn from the clock")
	fs.StringVar(&o.trajectory, "trajectory", "BENCH_trajectory.json", "file the verdict rows are appended to, relative to the checkout root; empty: none")
	var revs []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		revs = append(revs, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(revs) != 2 {
		return nil, fmt.Errorf("want two revisions, <parent> <change>; got %d", len(revs))
	}
	if o.pairs < 1 {
		return nil, fmt.Errorf("-pairs %d: want at least one", o.pairs)
	}
	copy(o.revs[:], revs)
	if *workloads != "" {
		o.workloads = strings.Split(*workloads, ",")
	}
	if o.seed == 0 {
		o.seed = time.Now().UnixNano() % 1_000_000
	}
	return o, nil
}

// checkout is one side: a revision checked out in a worktree, or a working
// tree in a directory of its own, with its bench binary built.
type checkout struct {
	rev, hash string
	dir       string // the worktree, or the working tree
	working   bool   // dir is the caller's working tree: never removed
	trees     map[string]string
	bin       string
}

// treePaths are the paths whose tree hashes identify what a side ran.
var treePaths = []string{"internal", "cmd", "bench", "go.mod"}

func run(ctx context.Context, o *options, out io.Writer) (err error) {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build", "mrpair")
	var sides [2]*checkout
	defer func() {
		// context.Background: an interrupt cancelled ctx, and the worktrees
		// must go all the same.
		for _, c := range sides {
			if c == nil || c.working {
				continue
			}
			if _, rerr := git(context.Background(), root, "worktree", "remove", "--force", c.dir); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
		if _, perr := git(context.Background(), root, "worktree", "prune"); perr != nil {
			err = errors.Join(err, perr)
		}
	}()
	if _, err := git(ctx, root, "worktree", "prune"); err != nil {
		return err
	}
	for i, name := range []string{"parent", "change"} {
		if info, serr := os.Stat(o.revs[i]); serr == nil && info.IsDir() {
			dir, err := filepath.Abs(o.revs[i])
			if err != nil {
				return err
			}
			c := &checkout{rev: o.revs[i], hash: "worktree", dir: dir, working: true}
			if c.trees, err = dirTrees(ctx, root, dir, work); err != nil {
				return err
			}
			sides[i] = c
			if err := c.build(ctx, work); err != nil {
				return err
			}
			continue
		}
		hash, err := git(ctx, root, "rev-parse", "--verify", o.revs[i]+"^{commit}")
		if err != nil {
			return err
		}
		c := &checkout{rev: o.revs[i], hash: hash, dir: filepath.Join(work, fmt.Sprintf("%s-%s", name, hash[:12]))}
		if c.trees, err = commitTrees(ctx, root, hash); err != nil {
			return err
		}
		if err := os.RemoveAll(c.dir); err != nil { // left by a run killed outright
			return err
		}
		if _, err := git(ctx, root, "worktree", "add", "--detach", c.dir, hash); err != nil {
			return err
		}
		sides[i] = c
		if err := c.build(ctx, work); err != nil {
			return err
		}
	}
	specData, err := os.ReadFile(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	spec, err := parseBenchSpec(specData)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	workloads := o.workloads
	if len(workloads) == 0 {
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	fmt.Fprintf(out, "mrpair %s (%s) vs %s (%s): %d pairs, %g s per run, seeds %d..%d\n",
		sides[0].rev, short(sides[0].hash), sides[1].rev, short(sides[1].hash), o.pairs, o.seconds, o.seed, o.seed+int64(o.pairs)-1)
	for _, c := range sides {
		fmt.Fprintf(out, "  %s trees:", c.rev)
		for _, p := range treePaths {
			fmt.Fprintf(out, " %s %s", p, short(c.trees[p]))
		}
		fmt.Fprintln(out)
	}
	var rows []trajectoryRow
	for _, w := range workloads {
		wrows, err := pairWorkload(ctx, o, spec, sides, w, out)
		rows = append(rows, wrows...)
		if err != nil {
			return err
		}
	}
	if o.trajectory == "" {
		return nil
	}
	path := filepath.Join(root, o.trajectory)
	existing, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	updated, err := appendTrajectory(existing, rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, updated, 0o644)
}

// benchEnv is bench/run.sh's environment: everything the build writes stays
// under .bench_build/, and nothing is fetched.
func benchEnv(work string) []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(work, "gocache"),
		"GOPATH="+filepath.Join(work, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(work, "config"),
		"GOFLAGS=-mod=readonly", "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
}

// build compiles the checkout's own bench/ module.
func (c *checkout) build(ctx context.Context, work string) error {
	c.bin = filepath.Join(c.dir, ".bench_build", "mrmicro-bench")
	cmd := exec.CommandContext(ctx, "go", "build", "-C", filepath.Join(c.dir, "bench"), "-o", c.bin, ".")
	cmd.Env = benchEnv(work)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building %s's bench: %w\n%s", c.rev, err, msg)
	}
	return nil
}

// runOnce runs the side's bench binary on one workload and seed. Beside
// the run's own metrics it records two readings of the process, from its
// wait4 rusage: cpu_ms_per_job, user+system CPU divided by the jobs it
// attempted, and peak_rss_mib.
func (c *checkout) runOnce(ctx context.Context, workload string, seed int64, seconds float64) (*runResult, error) {
	tmp := filepath.Join(c.dir, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, c.bin, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Dir = c.dir
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res, err := parseResult(stdout.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s %s seed %d: %v (exit: %v)\n%s", c.rev, workload, seed, err, runErr, stderr.Bytes())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && res.Attempted > 0 {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		res.Metrics["cpu_ms_per_job"] = metricValue{float64(cpu.Microseconds()) / 1000 / float64(res.Attempted)}
		res.Metrics["peak_rss_mib"] = metricValue{float64(ru.Maxrss) / 1024} // Linux reports KiB
	}
	return res, nil
}

// pairWorkload runs the pairs of one workload, prints its table and returns
// its trajectory rows.
func pairWorkload(ctx context.Context, o *options, spec *benchSpec, sides [2]*checkout, workload string, out io.Writer) ([]trajectoryRow, error) {
	var runs [2][]*runResult
	for p := 0; p < o.pairs; p++ {
		seed := o.seed + int64(p)
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, i := range order {
			r, err := sides[i].runOnce(ctx, workload, seed, o.seconds)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], r)
		}
		fmt.Fprintf(os.Stderr, "mrpair: %s: pair %d of %d done\n", workload, p+1, o.pairs)
	}
	failed := [2]int{}
	for i := range runs {
		for _, r := range runs[i] {
			failed[i] += r.Failed
		}
	}
	fmt.Fprintf(out, "\n%s  (failed jobs: parent %d, change %d)\n", workload, failed[0], failed[1])
	fmt.Fprintf(out, "  %-18s %12s %21s %12s %21s %8s %6s  %s\n", "metric", "parent", "q1–q3", "change", "q1–q3", "Δ", "wins", "verdict")
	var rows []trajectoryRow
	metrics := append(spec.EndToEnd,
		metricSpec{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower"},
		metricSpec{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"})
	for _, m := range metrics {
		var vals [2][]float64
		for i := range runs {
			for _, r := range runs[i] {
				v, ok := r.Metrics[m.Name]
				if !ok {
					break
				}
				vals[i] = append(vals[i], v.Value)
			}
		}
		if len(vals[0]) != o.pairs || len(vals[1]) != o.pairs {
			continue // not reported by this workload on both sides
		}
		j := judge(vals[0], vals[1], m)
		fmt.Fprintf(out, "  %-18s %12.4g %10.4g–%-10.4g %12.4g %10.4g–%-10.4g %+7.1f%% %3d/%-2d  %s\n",
			m.Name, j.Parent.Median, j.Parent.Q1, j.Parent.Q3, j.Change.Median, j.Change.Q1, j.Change.Q3,
			j.relChange(), j.Wins, j.Pairs, j.Verdict)
		rows = append(rows, trajectoryRow{
			Rev: sides[1].hash, Parent: sides[0].hash, Workload: workload, Metric: m.Name, Unit: m.Unit,
			Better: m.Better, Seconds: o.seconds, Seed: o.seed, Pairs: j.Pairs,
			ParentAt: j.Parent, ChangeAt: j.Change, Wins: j.Wins, Losses: j.Losses, Verdict: j.Verdict,
			ParentTrees: sides[0].trees, ChangeTrees: sides[1].trees,
		})
	}
	return rows, nil
}

// commitTrees returns commit hash's tree hashes of treePaths.
func commitTrees(ctx context.Context, root, hash string) (map[string]string, error) {
	trees := make(map[string]string, len(treePaths))
	for _, p := range treePaths {
		h, err := git(ctx, root, "rev-parse", hash+":"+p)
		if err != nil {
			return nil, err
		}
		trees[p] = h
	}
	return trees, nil
}

// dirTrees returns the tree hashes of treePaths in the working tree dir, as
// committing it would give them: the files go through a scratch index under
// work, with the working tree's own ignore rules, and into root's object
// store.
func dirTrees(ctx context.Context, root, dir, work string) (map[string]string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	index := filepath.Join(work, "index-"+fmt.Sprint(os.Getpid()))
	defer os.Remove(index)
	env := "GIT_INDEX_FILE=" + index
	if _, err := gitEnv(ctx, root, env, append([]string{"--work-tree=" + dir, "add", "-A", "--"}, treePaths...)...); err != nil {
		return nil, err
	}
	tree, err := gitEnv(ctx, root, env, "write-tree")
	if err != nil {
		return nil, err
	}
	return commitTrees(ctx, root, tree)
}

// short abbreviates a hash for the table head.
func short(h string) string { return h[:min(len(h), 12)] }

// git runs one git command in dir and returns its trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	return gitEnv(ctx, dir, "", args...)
}

// gitEnv is git with one more environment variable set (none when empty).
func gitEnv(ctx context.Context, dir, env string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	if env != "" {
		cmd.Env = append(os.Environ(), env)
	}
	msg, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %w\n%s", strings.Join(args, " "), err, msg)
	}
	return strings.TrimSpace(string(msg)), nil
}
