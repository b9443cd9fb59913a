package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// runResult is the last line a bench run prints: the jobs it attempted and
// failed and its end-to-end metrics.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// parseResult decodes the last non-empty line of a bench run's standard
// output, the one JSON line the benchmark ends with.
func parseResult(stdout []byte) (*runResult, error) {
	lines := bytes.Split(bytes.TrimRight(stdout, "\n"), []byte("\n"))
	last := bytes.TrimSpace(lines[len(lines)-1])
	if len(last) == 0 {
		return nil, fmt.Errorf("no result line")
	}
	var r runResult
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("result line %q has no metrics", last)
	}
	return &r, nil
}

// metricSpec is one end-to-end metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // relative worsening the benchmark tolerates; 0: none declared
}

// benchSpec is the part of BENCHMARK.json mrpair reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

func parseBenchSpec(data []byte) (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	return &s, nil
}

// median is the middle value (the mean of the two middle ones for an even
// count).
func median(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1 and q3 as Python's statistics.quantiles(vs, n=4)
// does (the exclusive method), the quartiles the benchmark's own spread is
// stated in. Fewer than two values have no spread.
func quartiles(vs []float64) (q1, q3 float64) {
	m := len(vs)
	if m < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// side is one commit's runs of a metric, summarized.
type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(vs []float64) side {
	q1, q3 := quartiles(vs)
	return side{Median: median(vs), Q1: q1, Q3: q3}
}

// Verdicts.
const (
	verdictWins       = "wins"
	verdictRegresses  = "regresses"
	verdictLevel      = "level"
	verdictUnresolved = "unresolved"
)

// judgement is one metric's verdict over paired runs.
type judgement struct {
	Parent, Change side
	Wins, Losses   int // pairs the change read better, worse; ties count for neither
	Pairs          int
	Verdict        string
}

// judge compares paired runs, parent[i] against change[i], under the pair
// rule: the change wins when it reads better in at least nine tenths of the
// pairs and the medians are further apart than the parent's q1–q3; it
// regresses by the same rule the other way. Anything else is level — or
// unresolved, when the parent's own spread is wider than the bound the
// benchmark declares for the metric, so level could not be told from a move
// within it.
func judge(parent, change []float64, m metricSpec) judgement {
	if len(parent) != len(change) {
		panic("mrpair: unpaired runs")
	}
	j := judgement{Parent: summarize(parent), Change: summarize(change), Pairs: len(parent)}
	sign := 1.0 // > 0: the change reads better
	if m.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			j.Wins++
		case d < 0:
			j.Losses++
		}
	}
	spread := j.Parent.Q3 - j.Parent.Q1
	apart := sign * (j.Change.Median - j.Parent.Median)
	switch {
	case j.Pairs > 0 && 10*j.Wins >= 9*j.Pairs && apart > spread:
		j.Verdict = verdictWins
	case j.Pairs > 0 && 10*j.Losses >= 9*j.Pairs && -apart > spread:
		j.Verdict = verdictRegresses
	case m.Bound > 0 && spread > m.Bound*j.Parent.Median:
		j.Verdict = verdictUnresolved
	default:
		j.Verdict = verdictLevel
	}
	return j
}

// relChange is the change's median relative to the parent's, in percent.
func (j judgement) relChange() float64 {
	if j.Parent.Median == 0 {
		return 0
	}
	return 100 * (j.Change.Median - j.Parent.Median) / j.Parent.Median
}

// trajectoryRow is one verdict as BENCH_trajectory.json keeps it.
type trajectoryRow struct {
	Rev      string  `json:"rev"`
	Parent   string  `json:"parent"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Seconds  float64 `json:"seconds"`
	Seed     int64   `json:"seed"`
	Pairs    int     `json:"pairs"`
	ParentAt side    `json:"parent_runs"`
	ChangeAt side    `json:"change_runs"`
	Wins     int     `json:"wins"`
	Losses   int     `json:"losses"`
	Verdict  string  `json:"verdict"`

	// The sides' tree hashes of internal, cmd, bench and go.mod. Rev (or
	// Parent) is "worktree" for a side run from a working tree: these
	// name what it ran.
	ParentTrees map[string]string `json:"parent_trees,omitempty"`
	ChangeTrees map[string]string `json:"change_trees,omitempty"`
}

// appendTrajectory appends rows to a trajectory file's contents, a JSON
// array of rows; empty contents start a new one.
func appendTrajectory(existing []byte, rows []trajectoryRow) ([]byte, error) {
	var all []json.RawMessage
	if len(bytes.TrimSpace(existing)) > 0 {
		if err := json.Unmarshal(existing, &all); err != nil {
			return nil, fmt.Errorf("trajectory: %w", err)
		}
	}
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		all = append(all, b)
	}
	var out bytes.Buffer
	out.WriteString("[\n")
	for i, r := range all {
		out.WriteString("  ")
		out.Write(r)
		if i < len(all)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("]\n")
	return out.Bytes(), nil
}
