package hadooprpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mrmicro/internal/writable"
)

// RetryClient is a Client that survives its server going away: every Call
// redials on connection-level failures and retries with bounded backoff
// until MaxDowntime has elapsed without reaching the server. It is the
// client a long-lived daemon (a distrun worker) uses to talk to a
// coordinator that may crash and be restarted on the same address —
// connection errors are treated as transient downtime, while RemoteErrors
// (the server answered, the handler failed) pass straight through.
type RetryClient struct {
	addr     string
	protocol string

	// MaxDowntime bounds how long a Call keeps retrying connection-level
	// failures before giving up (default 15s). RetryBase is the first retry
	// delay, doubling up to RetryMax (defaults 10ms / 250ms).
	MaxDowntime time.Duration
	RetryBase   time.Duration
	RetryMax    time.Duration

	mu     sync.Mutex
	conn   *Client
	closed bool
	done   chan struct{} // closed by Close: wakes a Call sleeping between retries
}

// NewRetryClient prepares a reconnecting client for the named protocol at
// addr. No connection is made until the first Call.
func NewRetryClient(addr, protocol string) *RetryClient {
	return &RetryClient{addr: addr, protocol: protocol, done: make(chan struct{})}
}

func (c *RetryClient) maxDowntime() time.Duration {
	if c.MaxDowntime > 0 {
		return c.MaxDowntime
	}
	return 15 * time.Second
}

func (c *RetryClient) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 10 * time.Millisecond
}

func (c *RetryClient) retryMax() time.Duration {
	if c.RetryMax > 0 {
		return c.RetryMax
	}
	return 250 * time.Millisecond
}

// client returns the live connection, dialing if needed.
func (c *RetryClient) client() (*Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrShutdown
	}
	if c.conn != nil {
		return c.conn, nil
	}
	conn, err := Dial(c.addr, c.protocol)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return conn, nil
}

// drop discards a connection after a failure so the next Call redials.
func (c *RetryClient) drop(conn *Client) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
	conn.Close()
}

// Call invokes method, redialing and retrying across connection failures
// until the downtime budget runs out. A *RemoteError means the server is up
// and the handler rejected the call — it is returned immediately, never
// retried.
func (c *RetryClient) Call(method string, result writable.Writable, params ...writable.Writable) error {
	deadline := time.Now().Add(c.maxDowntime())
	delay := c.retryBase()
	var lastErr error
	for {
		conn, err := c.client()
		if err == nil {
			err = conn.Call(method, result, params...)
			if err == nil {
				return nil
			}
			var remote *RemoteError
			if errors.As(err, &remote) {
				return err
			}
			// Connection-level failure mid-call: the stream may be desynced,
			// never reuse it. (A concurrent Call may have dropped it already,
			// surfacing ErrShutdown from the dead *connection* — that is
			// transient here; only this client's own Close is terminal.)
			c.drop(conn)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("hadooprpc: %s unreachable for %v: %w", c.addr, c.maxDowntime(), lastErr)
		}
		select {
		case <-time.After(delay):
		case <-c.done:
			return ErrShutdown
		}
		if delay *= 2; delay > c.retryMax() {
			delay = c.retryMax()
		}
	}
}

// Close shuts the client: a Call in flight or sleeping between retries
// returns ErrShutdown at once.
func (c *RetryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	return nil
}
