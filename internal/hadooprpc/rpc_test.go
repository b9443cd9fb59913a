package hadooprpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"mrmicro/internal/writable"
)

func echoServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", "test.EchoProtocol")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Register("echo", func(in *writable.DataInput, out *writable.DataOutput) error {
		var msg writable.Text
		if err := msg.ReadFields(in); err != nil {
			return err
		}
		msg.Write(out)
		return nil
	})
	s.Register("add", func(in *writable.DataInput, out *writable.DataOutput) error {
		var a, b writable.LongWritable
		if err := a.ReadFields(in); err != nil {
			return err
		}
		if err := b.ReadFields(in); err != nil {
			return err
		}
		(&writable.LongWritable{Value: a.Value + b.Value}).Write(out)
		return nil
	})
	s.Register("boom", func(in *writable.DataInput, out *writable.DataOutput) error {
		return errors.New("kaboom")
	})
	s.Register("ping", func(in *writable.DataInput, out *writable.DataOutput) error {
		return nil
	})
	return s
}

func TestEchoRoundTrip(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr(), "test.EchoProtocol")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got writable.Text
	if err := c.Call("echo", &got, writable.NewText("hello rpc")); err != nil {
		t.Fatal(err)
	}
	if got.String() != "hello rpc" {
		t.Errorf("echo = %q", got.String())
	}
}

func TestMultipleParams(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	defer c.Close()
	var sum writable.LongWritable
	if err := c.Call("add", &sum, &writable.LongWritable{Value: 40}, &writable.LongWritable{Value: 2}); err != nil {
		t.Fatal(err)
	}
	if sum.Value != 42 {
		t.Errorf("sum = %d", sum.Value)
	}
}

func TestVoidCall(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	defer c.Close()
	if err := c.Call("ping", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteError(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	defer c.Close()
	err := c.Call("boom", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
	if re.Msg != "kaboom" || re.Method != "boom" {
		t.Errorf("remote error = %+v", re)
	}
	// The connection survives a remote error.
	var got writable.Text
	if err := c.Call("echo", &got, writable.NewText("still alive")); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMethod(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	defer c.Close()
	if err := c.Call("nope", nil); err == nil {
		t.Error("unknown method succeeded")
	}
}

func TestWrongProtocolRejected(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr(), "other.Protocol")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The server drops the connection; the call must fail, not hang.
	if err := c.Call("echo", nil, writable.NewText("x")); err == nil {
		t.Error("call on rejected protocol succeeded")
	}
}

func TestCallAfterClose(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	c.Close()
	if err := c.Call("ping", nil); !errors.Is(err, ErrShutdown) {
		t.Errorf("err = %v, want ErrShutdown", err)
	}
}

func TestSequentialCallIDs(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	defer c.Close()
	for i := 0; i < 50; i++ {
		var got writable.Text
		if err := c.Call("echo", &got, writable.NewText(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if got.String() != fmt.Sprint(i) {
			t.Fatalf("call %d echoed %q", i, got.String())
		}
	}
	if n := s.Calls(); n != 50 {
		t.Errorf("server saw %d calls", n)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := echoServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), "test.EchoProtocol")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				var sum writable.LongWritable
				if err := c.Call("add", &sum, &writable.LongWritable{Value: int64(w)}, &writable.LongWritable{Value: int64(i)}); err != nil {
					t.Error(err)
					return
				}
				if sum.Value != int64(w+i) {
					t.Errorf("sum = %d, want %d", sum.Value, w+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Calls(); n != 8*25 {
		t.Errorf("server saw %d calls, want 200", n)
	}
}

func TestEchoPropertyRoundTrip(t *testing.T) {
	s := echoServer(t)
	c, _ := Dial(s.Addr(), "test.EchoProtocol")
	defer c.Close()
	f := func(payload []byte) bool {
		msg := &writable.BytesWritable{Data: payload}
		s.Register("echoBytes", func(in *writable.DataInput, out *writable.DataOutput) error {
			var b writable.BytesWritable
			if err := b.ReadFields(in); err != nil {
				return err
			}
			b.Write(out)
			return nil
		})
		var got writable.BytesWritable
		if err := c.Call("echoBytes", &got, msg); err != nil {
			return false
		}
		return string(got.Data) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRPCLatencySmall(b *testing.B) {
	s, err := NewServer("127.0.0.1:0", "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Register("ping", func(in *writable.DataInput, out *writable.DataOutput) error { return nil })
	c, err := Dial(s.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("ping", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCThroughput64KB(b *testing.B) {
	s, _ := NewServer("127.0.0.1:0", "bench")
	defer s.Close()
	s.Register("sink", func(in *writable.DataInput, out *writable.DataOutput) error {
		var v writable.BytesWritable
		return v.ReadFields(in)
	})
	c, _ := Dial(s.Addr(), "bench")
	defer c.Close()
	payload := &writable.BytesWritable{Data: make([]byte, 64<<10)}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("sink", nil, payload); err != nil {
			b.Fatal(err)
		}
	}
}
