package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"omniware/internal/trace"
)

const schema = "omnimark/1"

// environment is everything needed to say two reports are comparable:
// the fields BENCH_0–4.json never recorded.
type environment struct {
	Commit     string            `json:"commit"`
	Modified   bool              `json:"modified"` // uncommitted changes in the checkout
	GoVersion  string            `json:"go_version"`
	OSArch     string            `json:"os_arch"`
	Kernel     string            `json:"kernel"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	Clients    int               `json:"clients"`
	QueueCap   int               `json:"queue_cap"`
	CacheLimit int64             `json:"cache_limit_bytes"`
	CacheTiers string            `json:"cache_tiers"`
	Audit      string            `json:"audit"`
	Verify     string            `json:"verify"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Rounds     int               `json:"rounds"`
	Flags      map[string]string `json:"flags"`
	Start      time.Time         `json:"start"`
}

func readEnvironment(seed int64, seconds float64, flags map[string]string) environment {
	env := environment{
		Commit:     "unknown", // a checkout that is not a git repository
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    runtime.NumCPU(),
		Clients:    runtime.NumCPU(),
		QueueCap:   queueCap,
		CacheLimit: cacheLimit,
		CacheTiers: "memory",
		Audit:      auditMode,
		Verify:     verifyMode.String(),
		Seed:       seed,
		Seconds:    seconds,
		Rounds:     rounds,
		Flags:      flags,
		Start:      time.Now().UTC(),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "status", "--porcelain").Output()
		env.Modified = len(st) > 0
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// report is what a full run writes: the environment and one or more
// sets, each every workload in both passes on the same code.
type report struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Sets   [][]*result `json:"sets"`
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workloadTraces is one workload's part of trace.json: the first
// keepTraces client traces of its traced round, each with the
// daemon's echoed span tree grafted under its exec spans.
type workloadTraces struct {
	Workload string         `json:"workload"`
	Traces   []*trace.Trace `json:"traces"`
}

func writeTraces(outDir string, results []*result) error {
	var out []workloadTraces
	for _, res := range results {
		if res.Traced {
			out = append(out, workloadTraces{res.Workload, res.traces})
		}
	}
	if len(out) == 0 {
		return nil
	}
	return writeJSON(filepath.Join(outDir, "trace.json"), out)
}

func (res *result) print() {
	printMetrics := func(m metrics) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := m[k]
			fmt.Printf("%-12s %-32s %14.6g %-11s", res.Workload, k, v.Value, v.Unit)
			if len(v.Rounds) > 0 {
				s := append([]float64(nil), v.Rounds...)
				sort.Float64s(s)
				fmt.Printf(" rounds %.6g..%.6g", s[0], s[len(s)-1])
			}
			fmt.Println()
		}
	}
	printMetrics(res.Metrics)
	printMetrics(res.Detail)
	res.printStages()
	fmt.Printf("%-12s attempted %d failed %d fail_frac %g\n", res.Workload, res.Attempted, res.Failed, res.FailFrac)
	for _, e := range res.Errors {
		fmt.Printf("%-12s ERROR %s\n", res.Workload, e)
	}
}

// printStages lists the traced round's self time by span name, largest
// first: where the wall-clock of a job went, with no interval counted
// twice.
func (res *result) printStages() {
	names := make([]string, 0, len(res.Stages))
	total := 0.0
	for k, s := range res.Stages {
		names = append(names, k)
		total += s.SelfMs
	}
	sort.Slice(names, func(i, j int) bool { return res.Stages[names[i]].SelfMs > res.Stages[names[j]].SelfMs })
	for _, k := range names {
		s := res.Stages[k]
		fmt.Printf("%-12s self-time %-14s %12.3f ms %5.1f%% %9.2f us/span over %d spans\n",
			res.Workload, k, s.SelfMs, 100*s.SelfMs/total, 1e3*s.SelfMs/float64(s.Count), s.Count)
	}
}
