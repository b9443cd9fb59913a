// Package hadooprpc implements a Hadoop-RPC-style remote procedure call
// layer over TCP: a connection header naming the protocol, numbered calls
// carrying Writable-serialized parameters, and responses with status and a
// Writable result. It is the transport Hadoop's control plane (heartbeats,
// job submission, task umbilicals) runs on, and the subject of the
// companion micro-benchmark suite the paper cites as related work (Lu et
// al., "A Micro-benchmark Suite for Evaluating Hadoop RPC on
// High-Performance Networks", WBDB 2013).
//
// Wire format (big-endian):
//
//	connection: "hrpc" magic, version byte, Java-UTF protocol name
//	call:       int32 call id, Java-UTF method, int32 param bytes, params
//	response:   int32 call id, byte status (0 ok / 1 error),
//	            int32 payload bytes, payload (result or error text)
package hadooprpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"mrmicro/internal/writable"
)

// Version is the protocol version byte.
const Version = 9 // matches Hadoop 1.x RPC version

var magic = []byte("hrpc")

// ErrShutdown is returned for calls after the client or server closed.
var ErrShutdown = errors.New("hadooprpc: connection shut down")

// Handler serves one method: it decodes its parameter from in and writes
// its result to out.
type Handler func(in *writable.DataInput, out *writable.DataOutput) error

// Server dispatches calls to registered method handlers.
type Server struct {
	protocol string
	ln       net.Listener

	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	calls int64 // served call count (stats)
}

// NewServer listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves the named protocol.
func NewServer(addr, protocol string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hadooprpc: listen: %w", err)
	}
	s := &Server{protocol: protocol, ln: ln, handlers: make(map[string]Handler), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dialable address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Register binds a method name to a handler. Must be called before clients
// invoke the method; re-registration replaces the handler.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Calls returns the number of calls served.
func (s *Server) Calls() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Close stops the listener and waits for in-flight connections to drain on
// their own (clients hang up when done) — the graceful teardown.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// Abort closes the listener and severs every live connection with no
// farewell — what a crashed server process looks like to its peers. Clients
// mid-call see a connection error, never a response. The crash tests kill an
// in-process coordinator this way; a polite Close would let in-flight
// handlers answer first, which a real crash never does.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed { // aborted while this connection raced the listener close
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	// Connection header.
	head := make([]byte, 5)
	if _, err := io.ReadFull(conn, head); err != nil {
		return
	}
	if string(head[:4]) != string(magic) || head[4] != Version {
		return
	}
	proto, err := readUTF(conn)
	if err != nil || proto != s.protocol {
		return
	}
	for {
		id, method, params, err := readCall(conn)
		if err != nil {
			return
		}
		s.mu.Lock()
		h := s.handlers[method]
		s.calls++
		s.mu.Unlock()

		out := writable.NewDataOutput(64)
		status := byte(0)
		if h == nil {
			status = 1
			out.Write([]byte(fmt.Sprintf("unknown method %q on %s", method, s.protocol)))
		} else if err := h(writable.NewDataInput(params), out); err != nil {
			status = 1
			out.Reset()
			out.Write([]byte(err.Error()))
		}
		if err := writeResponse(conn, id, status, out.Bytes()); err != nil {
			return
		}
	}
}

// Client is a single-connection RPC client. Calls are serialized per
// client (one outstanding call at a time), matching Hadoop's per-connection
// call pipelining at its simplest; open several clients for parallelism.
type Client struct {
	mu     sync.Mutex // held for the whole of a call
	conn   net.Conn
	nextID int32
	closed atomic.Bool
}

// Dial connects and sends the connection header.
func Dial(addr, protocol string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hadooprpc: dial: %w", err)
	}
	var hdr []byte
	hdr = append(hdr, magic...)
	hdr = append(hdr, Version)
	hdr = appendUTF(hdr, protocol)
	if _, err := conn.Write(hdr); err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Call invokes method with the given Writable parameters and decodes the
// response into result (which may be nil for void methods).
func (c *Client) Call(method string, result writable.Writable, params ...writable.Writable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrShutdown
	}
	id := c.nextID
	c.nextID++

	enc := writable.NewDataOutput(64)
	for _, p := range params {
		p.Write(enc)
	}
	if _, err := c.conn.Write(appendCall(nil, id, method, enc.Bytes())); err != nil {
		return fmt.Errorf("hadooprpc: write: %w", err)
	}

	gotID, status, payload, err := readResponse(c.conn)
	if err != nil {
		return err
	}
	if gotID != id {
		return fmt.Errorf("hadooprpc: response id %d for call %d", gotID, id)
	}
	if status != 0 {
		return &RemoteError{Method: method, Msg: string(payload)}
	}
	if result == nil {
		if len(payload) != 0 {
			return fmt.Errorf("hadooprpc: unexpected %d-byte result for void call", len(payload))
		}
		return nil
	}
	return writable.Unmarshal(payload, result)
}

// Close shuts the connection; a call waiting on its response fails at once.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}

// RemoteError is a handler-side failure surfaced to the caller.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("hadooprpc: remote error in %s: %s", e.Method, e.Msg)
}

// --- wire helpers ---

func appendUTF(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readUTF(r io.Reader) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	buf := make([]byte, binary.BigEndian.Uint16(n[:]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// appendCall frames one call as readCall parses it.
func appendCall(b []byte, id int32, method string, params []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(id))
	b = appendUTF(b, method)
	b = binary.BigEndian.AppendUint32(b, uint32(len(params)))
	return append(b, params...)
}

// payloadStep bounds allocation ahead of arrived bytes, above 64 KiB bulk payloads.
const payloadStep = 256 << 10

// readPayload reads a frame's n-byte payload: one exact buffer up to
// payloadStep, else steps joined once all arrived, so a frame that declares
// more than it carries costs what it carried, not what it declared.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= payloadStep {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	var steps [][]byte
	for got := 0; got < n; got += payloadStep {
		step := make([]byte, min(payloadStep, n-got))
		if _, err := io.ReadFull(r, step); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		steps = append(steps, step)
	}
	return bytes.Join(steps, nil), nil
}

func readCall(r io.Reader) (id int32, method string, params []byte, err error) {
	var idBuf [4]byte
	if _, err = io.ReadFull(r, idBuf[:]); err != nil {
		return
	}
	id = int32(binary.BigEndian.Uint32(idBuf[:]))
	if method, err = readUTF(r); err != nil {
		return
	}
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > 64<<20 {
		err = fmt.Errorf("hadooprpc: %d-byte params exceed limit", n)
		return
	}
	params, err = readPayload(r, int(n))
	return
}

func writeResponse(w io.Writer, id int32, status byte, payload []byte) error {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	buf = append(buf, status)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

func readResponse(r io.Reader) (id int32, status byte, payload []byte, err error) {
	var head [9]byte
	if _, err = io.ReadFull(r, head[:]); err != nil {
		return
	}
	id = int32(binary.BigEndian.Uint32(head[:4]))
	status = head[4]
	n := binary.BigEndian.Uint32(head[5:])
	if n > 64<<20 {
		err = fmt.Errorf("hadooprpc: %d-byte response exceeds limit", n)
		return
	}
	payload, err = readPayload(r, int(n))
	return
}
