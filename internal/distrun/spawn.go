package distrun

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// WorkerPool spawns and supervises worker processes. Workers are the current
// binary re-executed with the bootstrap environment set (see MaybeWorker),
// so any binary or test that calls MaybeWorker can host them. A worker that
// exits abnormally — killed by the crash harness, by injected faults, or by
// a genuine crash — is respawned with a bumped epoch when Respawn is on; a
// zero exit means the coordinator dismissed it and ends the slot.
//
// A process cannot clean up after its own kill, so the pool does: each
// process runs with TMPDIR set to a directory of its own under the pool's
// root, removed when the process is reaped, and Close removes the root.
type WorkerPool struct {
	coordAddr string
	respawn   bool
	bin       string
	root      string
	reaping   sync.WaitGroup // one per process not yet reaped

	mu     sync.Mutex
	procs  map[int]*exec.Cmd
	epochs map[int]int
	closed bool
	live   int
	idle   chan struct{} // closed when the last worker slot ends
	once   sync.Once     // closes idle
	usage  WorkerUsage   // of every process reaped so far
}

// WorkerUsage is what worker processes cost the host, from the kernel's
// accounting of each reaped process (Linux; zero elsewhere).
type WorkerUsage struct {
	UserCPU, SysCPU time.Duration
	MinorFaults     int64
	MaxRSSBytes     int64 // the largest any one process reached
}

// StartWorkers spawns n workers pointed at coordAddr.
func StartWorkers(coordAddr string, n int, respawn bool) (*WorkerPool, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrun: locating own binary: %w", err)
	}
	root, err := os.MkdirTemp("", "mrmicro-workers-")
	if err != nil {
		return nil, fmt.Errorf("distrun: worker temp root: %w", err)
	}
	p := &WorkerPool{
		coordAddr: coordAddr,
		respawn:   respawn,
		bin:       bin,
		root:      root,
		procs:     make(map[int]*exec.Cmd),
		epochs:    make(map[int]int),
		idle:      make(chan struct{}),
	}
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
	tmp := filepath.Join(p.root, fmt.Sprintf("%d.%d", index, epoch))
	if err := os.Mkdir(tmp, 0o700); err != nil {
		return fmt.Errorf("distrun: worker %d temp dir: %w", index, err)
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
		return fmt.Errorf("distrun: spawning worker %d: %w", index, err)
	}
	p.procs[index] = cmd
	p.epochs[index] = epoch
	p.live++
	p.reaping.Add(1)
	go p.reap(index, epoch, cmd, tmp)
	return nil
}

// reap waits for one worker process, removes its temp dir, and respawns
// abnormal exits.
func (p *WorkerPool) reap(index, epoch int, cmd *exec.Cmd, tmp string) {
	defer p.reaping.Done()
	err := cmd.Wait()
	os.RemoveAll(tmp)
	p.mu.Lock()
	if cmd.ProcessState != nil {
		p.usage.add(cmd.ProcessState)
	}
	if p.procs[index] == cmd {
		delete(p.procs, index)
	}
	p.live--
	last := p.live == 0
	closed := p.closed
	p.mu.Unlock()

	// A zero exit is the coordinator's dismissal: the slot is done. Anything
	// else (kill signal, injected os.Exit, crash) respawns when enabled.
	if !closed && p.respawn && (err != nil || !cmd.ProcessState.Success()) {
		if serr := p.spawn(index, epoch+1); serr == nil {
			return
		}
	}
	if last {
		p.mu.Lock()
		if p.live == 0 {
			p.once.Do(func() { close(p.idle) })
		}
		p.mu.Unlock()
	}
}

// KillWorker SIGKILLs worker slot index's current process — the crash
// harness's hammer. Returns false if the slot has no live process.
func (p *WorkerPool) KillWorker(index int) bool {
	p.mu.Lock()
	cmd := p.procs[index]
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return false
	}
	return cmd.Process.Kill() == nil
}

// Live returns the number of running worker processes.
func (p *WorkerPool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Epoch returns slot index's current process incarnation.
func (p *WorkerPool) Epoch(index int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochs[index]
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
// process to be reaped, and removes the pool's temp root.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	p.closed = true
	procs := make([]*exec.Cmd, 0, len(p.procs))
	for _, cmd := range p.procs {
		procs = append(procs, cmd)
	}
	p.mu.Unlock()
	for _, cmd := range procs {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	p.reaping.Wait()
	os.RemoveAll(p.root)
}
