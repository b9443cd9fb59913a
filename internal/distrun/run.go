package distrun

import (
	"context"
	"time"

	"mrmicro/internal/microbench"
)

// Run executes cfg on the distributed runtime: an in-process coordinator
// plus opts.Workers spawned worker processes. The caller's binary must call
// MaybeWorker at the top of main (or TestMain) for the spawned processes to
// bootstrap.
func Run(cfg microbench.Config, opts *Options) (*Result, error) {
	return RunContext(context.Background(), cfg, opts)
}

var startWorkers = StartWorkers // tests swap it to count what a job leaves running

// RunContext is Run under ctx: when ctx ends before the job does, the
// coordinator is killed, the workers with it, and ctx's cause is the job's
// error.
func RunContext(ctx context.Context, cfg microbench.Config, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	coord, err := NewCoordinator(cfg, opts)
	if err != nil {
		return nil, err
	}
	defer coord.Stop()
	defer context.AfterFunc(ctx, func() { coord.kill(context.Cause(ctx)) })()
	pool, err := startWorkers(coord.Addr(), opts.workers(), opts.Respawn)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	res, err := coord.Wait()
	if err != nil {
		return nil, err
	}
	// Let workers pick up the exit directive so they shut down cleanly; the
	// deferred Close reaps any that don't make it in time.
	pool.WaitIdle(2 * time.Second)
	res.Workers = pool.Usage()
	return res, nil
}
