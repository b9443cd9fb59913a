package distrun

import (
	"path/filepath"
	"testing"

	"mrmicro/internal/leakcheck"
)

// TestSuccessorFencesPredecessorSessions: a coordinator restarted on the
// same WAL answers Fenced to a session its predecessor issued, even once it
// has registered workers of its own. A successor that reissued the number
// would hand that worker tasks as its own worker of the same number, and
// record its map commits at that worker's address.
func TestSuccessorFencesPredecessorSessions(t *testing.T) {
	leakcheck.Check(t, 0)
	cfg := testConfig()
	walPath := filepath.Join(t.TempDir(), "job.wal")
	first, err := NewCoordinator(cfg, &Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := first.handleRegister(&registerReq{Index: 0, Addr: "worker-0"})
	if err != nil {
		t.Fatal(err)
	}
	first.Kill()

	second, err := NewCoordinator(cfg, &Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Stop()
	live, err := second.handleRegister(&registerReq{Index: 1, Addr: "worker-1"})
	if err != nil {
		t.Fatal(err)
	}
	task, err := second.handleGetTask(&sessionReq{Session: stale.Session})
	if err != nil {
		t.Fatal(err)
	}
	if !task.Fenced {
		t.Errorf("successor handed its predecessor's session %d a %q task (its own worker holds session %d)",
			stale.Session, task.Kind, live.Session)
	}
}
