package load_test

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"omniware/internal/load"
	"omniware/internal/serve/metrics"
)

func TestScheduleDeterministicAndWeighted(t *testing.T) {
	cfg := load.Config{
		Jobs:      400,
		Seed:      42,
		Workloads: load.Mix{load.TrivLoad: 3, "compress": 1},
		Targets:   load.Mix{"mips": 1, "x86": 1},
	}
	a, err := load.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := load.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	counts := map[string]int{}
	for _, s := range a {
		counts[s.Workload]++
		if s.Target != "mips" && s.Target != "x86" {
			t.Fatalf("target %q not in mix", s.Target)
		}
	}
	// 3:1 weighting over 400 draws: trivload should clearly dominate.
	if counts[load.TrivLoad] <= counts["compress"] {
		t.Fatalf("weights ignored: %v", counts)
	}
	if counts["compress"] == 0 {
		t.Fatalf("compress never drawn: %v", counts)
	}

	c, err := load.Schedule(load.Config{Jobs: 400, Seed: 43,
		Workloads: cfg.Workloads, Targets: cfg.Targets})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleRejectsBadMix(t *testing.T) {
	if _, err := load.Schedule(load.Config{Workloads: load.Mix{"li": -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := load.Schedule(load.Config{Workloads: load.Mix{"li": 0}}); err == nil {
		t.Fatal("zero-total mix accepted")
	}
}

// A mix of nothing but the wild module, on all four targets: every job
// faults, every fault is contained, and parity still holds — the
// server's interpreter reference faults too, and a faulting reference
// matches a faulting run.
func TestWildLoadContainedWithParity(t *testing.T) {
	cfg := load.Config{
		Clients:   4,
		Jobs:      16,
		Seed:      7,
		Workloads: load.Mix{load.WildLoad: 1},
		Check:     true,
	}
	specs, err := load.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, s := range specs {
		targets[s.Target] = true
	}
	if len(targets) != 4 {
		t.Fatalf("schedule reaches %d targets, want all four; pick another seed", len(targets))
	}

	b, err := load.Boot(load.BootOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg.Addr = b.Base
	rep, err := load.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l := rep.Load; l.Faults != 16 || l.OK != 0 || l.Errors != 0 || l.Checked != 16 || l.Parity != 0 {
		t.Errorf("outcomes: %+v", l)
	}
	if s := rep.Server; s.JobsFailed != 16 || s.FaultsContained != 16 || s.CacheMisses != 4 {
		t.Errorf("server: failed=%d contained=%d cache_misses=%d, want 16, 16 and one miss per target",
			s.JobsFailed, s.FaultsContained, s.CacheMisses)
	}
}

// One real end-to-end run against an in-process server: the report
// (which Run has already put through Validate) must round-trip through
// JSON and agree with itself across the client and server views.
func TestRunClosedLoop(t *testing.T) {
	b, err := load.Boot(load.BootOpts{Workers: 2, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	cfg := load.Config{
		Addr:      b.Base,
		Mode:      "closed",
		Clients:   4,
		Jobs:      24,
		Seed:      7,
		Workloads: load.Mix{load.TrivLoad: 1},
		Targets:   load.Mix{"mips": 1, "sparc": 1},
		Prewarm:   true,
		Check:     true,
	}
	rep, err := load.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Load.OK != 24 || rep.Load.Faults != 0 || rep.Load.Errors != 0 {
		t.Fatalf("outcomes: %+v", rep.Load)
	}
	if rep.Load.Parity != 0 || rep.Load.Checked != 24 {
		t.Fatalf("parity accounting: %+v", rep.Load)
	}
	// Prewarm ran one job per (workload, target) pair, so every
	// measured job hits the cache.
	if rep.Load.Warm != 24 || rep.Load.Cold != 0 {
		t.Fatalf("prewarmed run saw cache misses: warm=%d cold=%d", rep.Load.Warm, rep.Load.Cold)
	}
	if rep.Server.JobsRun != 24 {
		t.Fatalf("server ran %d jobs, want 24", rep.Server.JobsRun)
	}
	for _, ts := range rep.Server.Targets {
		if ran := ts.Target == "mips" || ts.Target == "sparc"; ran != (ts.SandboxPct > 0) {
			t.Fatalf("sandbox overhead attributed to the wrong targets: %+v", ts)
		}
	}
	for _, stage := range []string{"queue_wait", "translate", "run"} {
		if rep.Server.Stages[stage].Count == 0 {
			t.Fatalf("stage %s missing from interval delta: %+v", stage, rep.Server.Stages)
		}
	}

	// The JSON artifact round-trips losslessly under strict decoding.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back load.Report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := load.Validate(&back); err != nil {
		t.Fatal(err)
	}

	out := load.Format(rep)
	for _, want := range []string{"jobs/sec", "warm=24", "stage_run"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted report missing %q:\n%s", want, out)
		}
	}
}

func TestRunOpenLoop(t *testing.T) {
	b, err := load.Boot(load.BootOpts{Workers: 2, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rep, err := load.Run(load.Config{
		Addr:      b.Base,
		Mode:      "open",
		Rate:      200,
		Jobs:      10,
		Seed:      1,
		Workloads: load.Mix{load.TrivLoad: 1},
		Targets:   load.Mix{"x86": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Load.OK != 10 {
		t.Fatalf("open loop: %+v", rep.Load)
	}
	if rep.Config.Rate != 200 || rep.Config.Mode != "open" {
		t.Fatalf("config summary: %+v", rep.Config)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &load.Report{
		Config: load.ConfigSummary{Jobs: 2},
		Load: load.LoadStats{
			DurationSec: 1, JobsPerSec: 2, Jobs: 2, OK: 2,
			Warm: 1, Cold: 1,
		},
	}
	if err := load.Validate(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := *good
	bad.Load.OK = 1 // ok+faults+errors no longer sums to jobs
	if err := load.Validate(&bad); err == nil {
		t.Fatal("broken accounting accepted")
	}
	bad = *good
	bad.Load.Latency = load.LatencyStats{P50Us: 5, P95Us: 3, P99Us: 4}
	if err := load.Validate(&bad); err == nil {
		t.Fatal("non-monotone quantiles accepted")
	}
	bad = *good
	bad.Server.Stages = map[string]metrics.StageSnapshot{"run": {Count: 3, P50Us: 5, P95Us: 3, P99Us: 4}}
	if err := load.Validate(&bad); err == nil {
		t.Fatal("non-monotone server stage quantiles accepted")
	}
}

// A mode, target or workload nobody knows is refused by name with the
// server untouched: nothing is decoded, nothing runs.
func TestRunRefusesBadConfigBeforeUpload(t *testing.T) {
	b, err := load.Boot(load.BootOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for offender, cfg := range map[string]load.Config{
		"bogus":  {Mode: "bogus"},
		"vax":    {Targets: load.Mix{"mips": 1, "vax": 1}},
		"nosuch": {Workloads: load.Mix{load.TrivLoad: 1, "nosuch": 1}},
	} {
		cfg.Addr = b.Base
		_, err := load.Run(cfg)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(offender)) {
			t.Errorf("%s: error %v does not name it", offender, err)
		}
	}
	if s := b.Server.Snapshot(); s.Stages["decode"].Count != 0 || s.JobsSubmitted != 0 {
		t.Errorf("a refused run reached the server: decode=%d submitted=%d", s.Stages["decode"].Count, s.JobsSubmitted)
	}
}
