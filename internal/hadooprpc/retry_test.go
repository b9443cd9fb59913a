package hadooprpc

import (
	"errors"
	"testing"
	"time"

	"mrmicro/internal/writable"
)

// TestRetryClientSurvivesRestart is the RetryClient's reason to exist: the
// server dies and comes back on the same address, and an in-flight Call rides
// out the gap instead of failing.
func TestRetryClientSurvivesRestart(t *testing.T) {
	s := echoServer(t)
	addr := s.Addr()

	c := NewRetryClient(addr, "test.EchoProtocol")
	c.MaxDowntime = 5 * time.Second
	defer c.Close()

	var got writable.Text
	if err := c.Call("echo", &got, writable.NewText("before")); err != nil {
		t.Fatalf("call before restart: %v", err)
	}

	// Crash the server: sever the established connection, don't drain it (a
	// graceful Close would block on the client's still-open connection).
	s.Abort()

	// Restart on the same address while a caller is already retrying.
	done := make(chan error, 1)
	go func() {
		var msg writable.Text
		err := c.Call("echo", &msg, writable.NewText("after"))
		if err == nil && msg.String() != "after" {
			err = errors.New("echo mismatch: " + msg.String())
		}
		done <- err
	}()

	time.Sleep(50 * time.Millisecond)
	s2, err := NewServer(addr, "test.EchoProtocol")
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
	t.Cleanup(s2.Close)
	s2.Register("echo", func(in *writable.DataInput, out *writable.DataOutput) error {
		var msg writable.Text
		if err := msg.ReadFields(in); err != nil {
			return err
		}
		msg.Write(out)
		return nil
	})

	if err := <-done; err != nil {
		t.Fatalf("call across restart: %v", err)
	}
}

// TestRetryClientRemoteErrorNotRetried pins that a handler failure — the
// server is alive and said no — returns immediately rather than burning the
// downtime budget.
func TestRetryClientRemoteErrorNotRetried(t *testing.T) {
	s := echoServer(t)
	c := NewRetryClient(s.Addr(), "test.EchoProtocol")
	defer c.Close()

	start := time.Now()
	err := c.Call("boom", nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("RemoteError took %v, should not have been retried", elapsed)
	}
	if calls := s.Calls(); calls != 1 {
		t.Errorf("server saw %d calls, want 1 (no retries)", calls)
	}
}

// TestRetryClientGivesUp bounds the retry loop: with no server ever coming
// back, Call fails once MaxDowntime elapses.
func TestRetryClientGivesUp(t *testing.T) {
	s := echoServer(t)
	addr := s.Addr()
	s.Close()

	c := NewRetryClient(addr, "test.EchoProtocol")
	c.MaxDowntime = 100 * time.Millisecond
	defer c.Close()

	if err := c.Call("ping", nil); err == nil {
		t.Fatal("Call succeeded against a dead server")
	} else if errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want downtime error, not ErrShutdown", err)
	}
}

// TestRetryClientCloseAborts pins that Close ends a retry loop promptly with
// ErrShutdown instead of letting it spin out the full downtime budget.
func TestRetryClientCloseAborts(t *testing.T) {
	s := echoServer(t)
	addr := s.Addr()
	s.Close()

	c := NewRetryClient(addr, "test.EchoProtocol")
	c.MaxDowntime = time.Hour

	done := make(chan error, 1)
	go func() { done <- c.Call("ping", nil) }()
	time.Sleep(30 * time.Millisecond)
	c.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("err = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not abort after Close")
	}
}

// TestRetryClientCloseWakesBackoff: a Call asleep between retries returns
// ErrShutdown as soon as the client closes, not when its backoff delay is
// over. The delay here is ten seconds, so only a woken sleep passes.
func TestRetryClientCloseWakesBackoff(t *testing.T) {
	s := echoServer(t)
	addr := s.Addr()
	s.Close()

	c := NewRetryClient(addr, "test.EchoProtocol")
	c.MaxDowntime, c.RetryBase, c.RetryMax = time.Minute, 10*time.Second, 10*time.Second

	done := make(chan error, 1)
	go func() { done <- c.Call("ping", nil) }()
	time.Sleep(50 * time.Millisecond) // the first dial is refused: the Call sleeps
	closed := time.Now()
	c.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("err = %v, want ErrShutdown", err)
		}
		if d := time.Since(closed); d > 20*time.Millisecond {
			t.Errorf("Call returned %v after Close, want within 20ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call slept out its backoff after Close")
	}
}
