// Package apps is the suite's real-input application layer: wordcount,
// grep, and inverted-index over text corpora, plus the TPCx-HS-style
// HSGen/HSSort/HSValidate stages. Each workload is a set of Mapper/Reducer
// factories over internal/inputformat splits AND an independent in-process
// oracle computed outside the MapReduce machinery, so every engine's output
// can be checked byte-for-byte (mrcheck's workload invariants do exactly
// that). Workloads are classified by communication pattern — shuffle-heavy
// vs map-heavy — which is what the workload × interconnect figure sweeps.
package apps

import (
	"fmt"
	"sort"
)

// Workload names.
const (
	WordCount  = "wordcount"
	Grep       = "grep"
	InvIndex   = "invindex"
	HSGen      = "hsgen"
	HSSort     = "hssort"
	HSValidate = "hsvalidate"
)

// Workloads lists every workload name, file-backed ones first.
func Workloads() []string {
	return []string{WordCount, Grep, InvIndex, HSGen, HSSort, HSValidate}
}

// FileBacked reports whether a workload reads a materialized input corpus
// (as opposed to HSGen, which synthesizes its rows).
func FileBacked(w string) bool { return w != HSGen }

// Known reports whether w names a workload.
func Known(w string) bool {
	for _, k := range Workloads() {
		if k == w {
			return true
		}
	}
	return false
}

// Communication patterns. A shuffle-heavy workload moves roughly its input
// volume (or more) through the shuffle, so interconnect bandwidth dominates
// its job time; a map-heavy one filters most records map-side and barely
// notices the network.
const (
	ShuffleHeavy = "shuffle-heavy"
	MapHeavy     = "map-heavy"
)

// CommPattern classifies a workload. Wordcount and inverted-index emit one
// record per input token (inverted-index with fat postings values) —
// shuffle-heavy. Grep emits only matching fragments — map-heavy. The HS
// stages: gen writes locally (map-heavy), sort moves every row through the
// total-order shuffle (shuffle-heavy), validate reduces per-split summaries
// only (map-heavy).
func CommPattern(workload string) string {
	switch workload {
	case WordCount, InvIndex, HSSort:
		return ShuffleHeavy
	default:
		return MapHeavy
	}
}

// Tokenize splits a line into lowercase alphanumeric words — the shared
// tokenizer for wordcount, inverted-index, and their oracles.
func Tokenize(line []byte) []string {
	var words []string
	eachWord(line, func(w []byte) error {
		words = append(words, string(appendLower(nil, w)))
		return nil
	})
	return words
}

// eachWord calls fn with every maximal run of ASCII letters and digits in
// line, as a view into line (not yet lowercased), stopping at fn's first
// error. The mappers lowercase each word into a Text they own.
func eachWord(line []byte, fn func(word []byte) error) error {
	start := -1
	for i, c := range line {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum && start < 0 {
			start = i
		} else if !alnum && start >= 0 {
			if err := fn(line[start:i]); err != nil {
				return err
			}
			start = -1
		}
	}
	if start >= 0 {
		return fn(line[start:])
	}
	return nil
}

// appendLower appends b with ASCII upper case folded to lower.
func appendLower(dst, b []byte) []byte {
	for _, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// sortedKeys returns a map's keys in sorted order (oracles render their
// results in reduce-key order for comparison).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func errf(format string, args ...any) error { return fmt.Errorf("apps: "+format, args...) }
