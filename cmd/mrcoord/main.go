// Command mrcoord runs a distrun coordinator for one micro-benchmark job,
// without spawning any workers itself: it prints its listen address and
// waits for mrworker processes (started by hand, by a script, or on other
// terminals) to register and execute the job. This is the real-cluster
// counterpart of `mrbench -engine=dist`, which does the same thing but
// spawns its own local worker pool.
//
// Example (two shells):
//
//	mrcoord -pattern MR-AVG -maps 8 -reduces 4 -pairs 2000 -kv 64 -wal /tmp/job.wal
//	mrworker -coord 127.0.0.1:41873 -index 0 &
//	mrworker -coord 127.0.0.1:41873 -index 1 &
//
// Killing mrcoord mid-job and restarting it with the same -addr and -wal
// resumes from the write-ahead task log instead of rerunning committed work.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mrmicro/internal/distrun"
	"mrmicro/internal/microbench"
)

func main() {
	shared := microbench.BindFlags(flag.CommandLine)
	var (
		addr    = flag.String("addr", "127.0.0.1:0", "listen address (pass a concrete port to allow crash/restart recovery)")
		walPath = flag.String("wal", "", "write-ahead task log path (empty: no log, no restart recovery)")
		specAft = flag.Duration("speculative", 0, "speculate a duplicate attempt after a task runs this long without committing (0 disables)")
	)
	flag.Parse()

	cfg, err := shared()
	if err != nil {
		fatal(err)
	}
	cfg.Engine = microbench.EngineDist
	if cfg.PairsPerMap <= 0 {
		fatal(fmt.Errorf("specify -size or -pairs"))
	}

	coord, err := distrun.NewCoordinator(cfg, &distrun.Options{
		Addr:             *addr,
		WALPath:          *walPath,
		SpeculativeAfter: *specAft,
		Digest:           true,
	})
	if err != nil {
		fatal(err)
	}
	defer coord.Stop()

	fmt.Printf("mrcoord: listening on %s\n", coord.Addr())
	fmt.Printf("mrcoord: join workers with: mrworker -coord %s -index <n>\n", coord.Addr())

	res, err := coord.Wait()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("maps/reduces        %d / %d\n", res.NumMaps, res.NumReduces)
	fmt.Printf("wall time           %v\n", res.Elapsed.Round(time.Millisecond))
	fmt.Printf("job digest          %016x\n", res.JobDigest)
	fmt.Printf("maps re-queued      %d\n", res.RequeuedMaps)
	fmt.Printf("speculative wins    %d\n", res.SpeculativeWins)
	fmt.Printf("recovered from WAL  %d maps, %d reduces\n", res.RecoveredMaps, res.RecoveredReduces)
	fmt.Printf("counters:\n%s", res.Counters)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrcoord:", err)
	os.Exit(1)
}
