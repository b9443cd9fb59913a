// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParseSize parses human-friendly byte sizes like "512MB", "16GB", "1.5GB",
// "2TB" (binary units) or a bare byte count.
func ParseSize(s string) (int64, error) {
	in := s
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"TB", 1 << 40}, {"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			s = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", in)
	}
	if f < 0 {
		return 0, fmt.Errorf("negative size %q", in)
	}
	return int64(f * float64(mult)), nil
}

// KVFlag is a repeatable key=value flag (Hadoop's -D style): each occurrence
// adds one pair, later occurrences of the same key overwrite earlier ones.
// Register with flag.Var; the zero value is ready to use.
type KVFlag struct {
	m map[string]string
}

// String renders the collected pairs sorted by key, for -help output.
func (f *KVFlag) String() string {
	if f == nil || len(f.m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, f.m[k])
	}
	return b.String()
}

// Set records one key=value occurrence. The value may itself contain '=';
// a missing '=' or an empty key is an error.
func (f *KVFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	k = strings.TrimSpace(k)
	if k == "" {
		return fmt.Errorf("empty key in %q", s)
	}
	if f.m == nil {
		f.m = make(map[string]string)
	}
	f.m[k] = v
	return nil
}

// Map returns the collected pairs, nil when no occurrences were seen.
func (f *KVFlag) Map() map[string]string {
	if len(f.m) == 0 {
		return nil
	}
	return f.m
}
