package distrun

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// The write-ahead task log is a file of JSON lines, one entry per committed
// task attempt, fsynced before the commit is acknowledged. It exists for
// exactly one scenario: the coordinator dies and is restarted on the same
// address. The restarted coordinator replays the log — committed reduces are
// final (their counters, digest and record count are in the entry, so they
// never re-run); committed maps come back "committed but unlocated" until a
// surviving worker re-registers holding that map's bytes, and are re-queued
// after a grace period otherwise (the bytes died with their worker, exactly
// as when a worker dies under a live coordinator).

// walEntry is one log line. Type tags: "map" and "reduce" commits.
type walEntry struct {
	Type     string                      `json:"t"`
	Task     int                         `json:"task"`
	Version  int64                       `json:"version,omitempty"` // map commits
	Counters map[string]map[string]int64 `json:"counters,omitempty"`
	Digest   uint64                      `json:"digest,omitempty"`  // reduce commits
	Records  int64                       `json:"records,omitempty"` // reduce commits
}

// wal is the append side of the log.
type wal struct {
	f *os.File
	w *bufio.Writer
}

// openWAL replays the log at path and opens it for appending. It first cuts
// a torn tail off, durably: left in place, the next entry would fuse with it
// into one unreadable line. An empty path disables logging: every method is
// a no-op and recovery finds nothing.
func openWAL(path string) (*wal, []walEntry, error) {
	if path == "" {
		return &wal{}, nil, nil
	}
	entries, size, err := readWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("distrun: wal: %w", err)
	}
	if err := errors.Join(f.Truncate(size), f.Sync()); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("distrun: wal: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriter(f)}, entries, nil
}

// append durably records one entry. The sync before returning is the whole
// point: an acknowledged commit must survive a coordinator crash.
func (l *wal) append(e walEntry) error {
	if l.f == nil {
		return nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

func (l *wal) close() {
	if l.f != nil {
		l.w.Flush()
		l.f.Close()
	}
}

// readWAL replays the log at path: its entries and the length of the lines
// read. A missing file (or an empty path) is an empty log. Bytes after the
// last newline are a torn tail, never acknowledged: append syncs an entry with
// its newline before it acknowledges. A whole line that is not an entry is
// skipped, not the end: only damage writes one, or an older coordinator's
// append to a torn tail, and the entries after it were acknowledged.
func readWAL(path string) (entries []walEntry, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("distrun: wal replay: %w", err)
	}
	size = int64(bytes.LastIndexByte(data, '\n') + 1)
	for line := range bytes.Lines(data[:size]) {
		var e walEntry
		if json.Unmarshal(line, &e) == nil {
			entries = append(entries, e)
		}
	}
	return entries, size, nil
}
