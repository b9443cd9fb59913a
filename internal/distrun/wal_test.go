package distrun

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _, err := openWAL(path)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	want := []walEntry{
		{Type: "map", Task: 0, Version: 1, Counters: map[string]map[string]int64{"g": {"n": 3}}},
		{Type: "map", Task: 2, Version: 2},
		{Type: "reduce", Task: 1, Digest: 0xdeadbeef, Records: 42},
	}
	for _, e := range want {
		if err := l.append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	l.close()

	got, _, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got  %+v\n want %+v", got, want)
	}
}

// TestWALTornTailDropped simulates a crash mid-append: the final, partially
// written line must be dropped (it was never acknowledged), while every
// complete line before it survives.
func TestWALTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _, err := openWAL(path)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	if err := l.append(walEntry{Type: "map", Task: 3, Version: 7}); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := f.WriteString(`{"t":"reduce","task":1,"dig`); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	got, _, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if len(got) != 1 || got[0].Task != 3 || got[0].Version != 7 {
		t.Errorf("entries after torn tail = %+v, want just the complete map commit", got)
	}
}

func TestWALEmptyAndMissing(t *testing.T) {
	if entries, _, err := readWAL(""); err != nil || entries != nil {
		t.Errorf(`readWAL("") = %v, %v; want nil, nil`, entries, err)
	}
	missing := filepath.Join(t.TempDir(), "nope.wal")
	if entries, _, err := readWAL(missing); err != nil || entries != nil {
		t.Errorf("readWAL(missing) = %v, %v; want nil, nil", entries, err)
	}
	// A disabled (empty-path) WAL accepts appends as no-ops.
	l, _, err := openWAL("")
	if err != nil {
		t.Fatalf("openWAL(\"\"): %v", err)
	}
	if err := l.append(walEntry{Type: "map"}); err != nil {
		t.Errorf("no-op append: %v", err)
	}
	l.close()
}

// TestWALAppendAfterTornTail restarts on a log whose last line was never
// finished — cut mid-entry, or a whole entry missing its newline — appends
// twice and restarts again. The tail must be dropped, and both appends must
// replay: left in place, the tail would fuse with the first append into one
// unreadable line, and replay would lose every commit after it.
func TestWALAppendAfterTornTail(t *testing.T) {
	first := walEntry{Type: "map", Task: 3, Version: 7}
	appended := []walEntry{{Type: "reduce", Task: 0, Digest: 9, Records: 1}, {Type: "map", Task: 4, Version: 8}}
	for name, tail := range map[string]string{
		"partial-line":    `{"t":"reduce","task":1,"dig`,
		"missing-newline": `{"t":"reduce","task":1,"digest":5}`,
	} {
		path := filepath.Join(t.TempDir(), "job.wal")
		l, _, err := openWAL(path)
		if err != nil {
			t.Fatalf("%s: openWAL: %v", name, err)
		}
		if err := l.append(first); err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		l.close()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatalf("%s: write torn tail: %v", name, err)
		}
		f.Close()

		l, recovered, err := openWAL(path) // the first restart
		if err != nil {
			t.Fatalf("%s: openWAL after tail: %v", name, err)
		}
		if !reflect.DeepEqual(recovered, []walEntry{first}) {
			t.Errorf("%s: first restart recovered %+v, want just %+v", name, recovered, first)
		}
		for _, e := range appended {
			if err := l.append(e); err != nil {
				t.Fatalf("%s: append: %v", name, err)
			}
		}
		l.close()
		got, _, err := readWAL(path) // the second restart's replay
		if err != nil {
			t.Fatalf("%s: readWAL: %v", name, err)
		}
		if want := append([]walEntry{first}, appended...); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: second replay = %+v, want %+v", name, got, want)
		}
	}
}

// TestWALKeepsEntriesAfterUnreadableLine restarts on a log with a whole line
// that is not an entry between two that are: the shape a torn tail takes once
// an append has fused with it, or a damaged block. Replay must skip that line
// and keep the acknowledged entry after it, and recovery must not cut the
// log there.
func TestWALKeepsEntriesAfterUnreadableLine(t *testing.T) {
	before, after := walEntry{Type: "map", Task: 3, Version: 7}, walEntry{Type: "map", Task: 5, Version: 2}
	log := `{"t":"map","task":3,"version":7}` + "\n" +
		`{"t":"reduce","task":1,"dig{"t":"map","task":4,"version":8}` + "\n" +
		`{"t":"map","task":5,"version":2}` + "\n"
	path := filepath.Join(t.TempDir(), "job.wal")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recovered, err := openWAL(path)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	if want := []walEntry{before, after}; !reflect.DeepEqual(recovered, want) {
		t.Errorf("recovered %+v, want %+v", recovered, want)
	}
	l.close()
	if data, _ := os.ReadFile(path); string(data) != log {
		t.Errorf("recovery rewrote the log:\n%s\nwant it unchanged:\n%s", data, log)
	}
}

// FuzzWALReplay feeds arbitrary bytes as a log. Replay must not panic, and
// after recovery and one append the next replay must return exactly the
// recovered entries followed by the appended one, whatever tail the log had.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(`{"t":"map","task":3,"version":7}` + "\n" + `{"t":"reduce","task":1,"dig`))
	f.Add([]byte(`{"t":"map","task":3,"version":7}` + "\n" + `{"t":"reduce","task":1,"digest":5}`))
	f.Add([]byte(`{"t":"map","task":3,"version":7}` + "\n" + `{"t":"reduce","task":1,"dig{"t":"map","task":4,"version":8}` + "\n" +
		`{"t":"map","task":5,"version":2}` + "\n"))
	f.Add([]byte{})
	f.Add([]byte(`{"t":"map","task":0,"version":1,"counters":{"g":{"n":3}}}` + "\n" +
		`{"t":"reduce","task":1,"digest":3735928559,"records":42}` + "\n"))
	next := walEntry{Type: "reduce", Task: 2, Counters: map[string]map[string]int64{"g": {"n": 1}}, Digest: 11, Records: 4}
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "job.wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recovered, err := openWAL(path)
		if err != nil {
			t.Fatalf("openWAL: %v", err)
		}
		if err := l.append(next); err != nil {
			t.Fatalf("append: %v", err)
		}
		l.close()
		got, size, err := readWAL(path)
		if err != nil {
			t.Fatalf("readWAL: %v", err)
		}
		if want := append(recovered, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after recovery and one append = %+v, want %+v", got, want)
		}
		if data, _ := os.ReadFile(path); int64(len(data)) != size || !bytes.HasSuffix(data, []byte("\n")) {
			t.Fatalf("replay spans %d of the log's %d bytes", size, len(data))
		}
	})
}
