package distrun

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// WorkerPool spawns and supervises workers: the current binary re-executed
// with the bootstrap environment set (see MaybeWorker), or in tests
// goroutines running RunWorker (startInProcess). A worker that ends
// abnormally — killed by the crash harness, by injected faults, or by a
// genuine crash — is respawned with a bumped epoch when Respawn is on; a
// clean end means the coordinator dismissed it and ends the slot.
//
// A process cannot clean up after its own kill, so the pool does: each
// process runs with TMPDIR set to a directory of its own under the pool's
// root, removed when the process is reaped, and Close removes the root. A
// killed goroutine cleans up on its own return path.
type WorkerPool struct {
	coordAddr string
	respawn   bool
	launch    func(index, epoch int) (wait func() error, kill func() error, err error)
	bin       string
	root      string
	reaping   sync.WaitGroup // one per worker not yet reaped

	mu     sync.Mutex
	kills  map[int]func() error // per slot: ends its running worker
	closed bool
	live   int
	idle   chan struct{} // closed when the last worker slot ends
	once   sync.Once     // closes idle
	usage  WorkerUsage   // of every process reaped so far
}

// WorkerUsage is what worker processes cost the host, from the kernel's
// accounting of each reaped process (Linux; zero elsewhere and in process).
type WorkerUsage struct {
	UserCPU, SysCPU time.Duration
	MinorFaults     int64
	MaxRSSBytes     int64 // the largest any one process reached
}

// StartWorkers spawns n worker processes pointed at coordAddr.
func StartWorkers(coordAddr string, n int, respawn bool) (*WorkerPool, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrun: locating own binary: %w", err)
	}
	root, err := os.MkdirTemp("", "mrmicro-workers-")
	if err != nil {
		return nil, fmt.Errorf("distrun: worker temp root: %w", err)
	}
	p := &WorkerPool{coordAddr: coordAddr, respawn: respawn, bin: bin, root: root}
	p.launch = p.process
	return p.start(n)
}

// startInProcess is StartWorkers with each worker a goroutine of this
// process running RunWorker under a context of its own, which a kill cancels.
func startInProcess(coordAddr string, n int, respawn bool) (*WorkerPool, error) {
	p := &WorkerPool{coordAddr: coordAddr, respawn: respawn}
	p.launch = func(index, epoch int) (wait func() error, kill func() error, err error) {
		ctx, cancel := context.WithCancelCause(context.Background())
		wait = func() error {
			defer cancel(nil)
			return RunWorker(ctx, coordAddr, index, epoch)
		}
		return wait, func() error { cancel(errKilled); return nil }, nil
	}
	return p.start(n)
}

func (p *WorkerPool) start(n int) (*WorkerPool, error) {
	p.kills, p.idle = make(map[int]func() error), make(chan struct{})
	for i := 0; i < n; i++ {
		if err := p.spawn(i, 0); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *WorkerPool) spawn(index, epoch int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	wait, kill, err := p.launch(index, epoch)
	if err != nil {
		return err
	}
	p.kills[index] = kill
	p.live++
	p.reaping.Add(1)
	go p.reap(index, epoch, wait)
	return nil
}

// process starts slot index's worker as a process with a temp dir of its
// own; wait reaps it and removes the dir.
func (p *WorkerPool) process(index, epoch int) (wait func() error, kill func() error, err error) {
	tmp := filepath.Join(p.root, fmt.Sprintf("%d.%d", index, epoch))
	if err := os.Mkdir(tmp, 0o700); err != nil {
		return nil, nil, fmt.Errorf("distrun: worker %d temp dir: %w", index, err)
	}
	cmd := exec.Command(p.bin)
	cmd.Env = append(os.Environ(),
		EnvCoordAddr+"="+p.coordAddr,
		EnvWorkerIndex+"="+strconv.Itoa(index),
		EnvWorkerEpoch+"="+strconv.Itoa(epoch),
		"TMPDIR="+tmp, // exec.Cmd keeps the last of duplicate keys
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("distrun: spawning worker %d: %w", index, err)
	}
	wait = func() error {
		err := cmd.Wait() // an exit code other than 0 is an error
		os.RemoveAll(tmp)
		p.mu.Lock()
		p.usage.add(cmd.ProcessState)
		p.mu.Unlock()
		return err
	}
	return wait, cmd.Process.Kill, nil
}

// reap waits for one worker and respawns abnormal ends.
func (p *WorkerPool) reap(index, epoch int, wait func() error) {
	defer p.reaping.Done()
	err := wait()
	p.mu.Lock()
	delete(p.kills, index)
	p.live--
	closed := p.closed
	p.mu.Unlock()

	// A clean end is the coordinator's dismissal: the slot is done. Anything
	// else (a kill, an injected fault, a crash) respawns when enabled.
	if !closed && p.respawn && err != nil {
		if serr := p.spawn(index, epoch+1); serr == nil {
			return
		}
	}
	p.mu.Lock()
	if p.live == 0 {
		p.once.Do(func() { close(p.idle) })
	}
	p.mu.Unlock()
}

// KillWorker ends worker slot index's current worker — the crash harness's
// hammer: SIGKILL for a process, a cancel for an in-process worker. Returns
// false if the slot has no live worker.
func (p *WorkerPool) KillWorker(index int) bool {
	p.mu.Lock()
	kill := p.kills[index]
	p.mu.Unlock()
	return kill != nil && kill() == nil
}

// Live returns the number of running workers.
func (p *WorkerPool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Usage returns the summed usage of the worker processes reaped so far.
func (p *WorkerPool) Usage() WorkerUsage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.usage
}

// WaitIdle blocks until every worker slot has ended (all workers exited
// without respawn), or the timeout elapses.
func (p *WorkerPool) WaitIdle(timeout time.Duration) bool {
	p.mu.Lock()
	if p.live == 0 {
		p.mu.Unlock()
		return true
	}
	p.mu.Unlock()
	select {
	case <-p.idle:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops respawning, kills any worker still running, waits for every
// worker to be reaped, and removes the pool's temp root.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	p.closed = true
	for _, kill := range p.kills {
		kill()
	}
	p.mu.Unlock()
	p.reaping.Wait()
	os.RemoveAll(p.root) // "" for in-process workers: a no-op
}
