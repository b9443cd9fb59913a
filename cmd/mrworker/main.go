// Command mrworker runs one distrun worker process: it registers with a
// coordinator (mrcoord, or an `mrbench -engine=dist` run), serves its map
// outputs from a local shuffle server, and executes task attempts until the
// coordinator dismisses it. The job definition arrives from the coordinator
// at registration — mrworker takes no benchmark flags of its own, only
// -cpuprofile / -memprofile, which profile it until it is dismissed or, on
// SIGINT or SIGTERM, has closed its connections and removed its scratch.
//
// Example:
//
//	mrworker -coord 127.0.0.1:41873 -index 0
//
// If the coordinator dies, the worker's retrying RPC client keeps redialing
// the same address; restart the coordinator there (same -wal) and the worker
// re-registers, re-announcing any committed map outputs it still holds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mrmicro/internal/cliutil"
	"mrmicro/internal/distrun"
)

func main() {
	var (
		coord = flag.String("coord", "", "coordinator address (required)")
		index = flag.Int("index", 0, "worker slot index (stable across restarts of the same slot)")
		epoch = flag.Int("epoch", 0, "process incarnation of this slot (bump when restarting after a crash)")
	)
	prof := cliutil.BindProfileFlags(flag.CommandLine)
	flag.Parse()
	if *coord == "" {
		fatal(fmt.Errorf("-coord is required"))
	}
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Arguments run left to right: the profile stops once the worker returns.
	if err := errors.Join(distrun.RunWorker(ctx, *coord, *index, *epoch), stopProf()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrworker:", err)
	os.Exit(1)
}
