package metrics

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"omniware/internal/target"
	"omniware/internal/trace"
)

// promLines indexes "name{labels} value" exposition lines by their
// series (everything before the last space).
func promLines(t *testing.T, text string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", l)
		}
		out[l[:i]] = l[i+1:]
	}
	return out
}

func TestPromCountersAndGauges(t *testing.T) {
	var m Metrics
	m.Add(JobsSubmitted, 9)
	m.Add(JobsRun, 7)
	m.Add(QueueDepth, 2)
	s := m.Snapshot()
	s.CacheDiskWrites = 4

	text := s.Prom()
	series := promLines(t, text)
	for name, want := range map[string]string{
		"omni_jobs_submitted_total":    "9",
		"omni_jobs_run_total":          "7",
		"omni_queue_depth":             "2",
		"omni_cache_disk_writes_total": "4",
	} {
		if got := series[name]; got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	// Every family carries HELP and TYPE headers.
	for _, frag := range []string{
		"# TYPE omni_jobs_run_total counter",
		"# TYPE omni_queue_depth gauge",
		"# TYPE omni_stage_latency_seconds histogram",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("missing %q in exposition:\n%s", frag, text)
		}
	}
}

// Histogram series must be cumulative, end with +Inf equal to _count,
// and report _sum in seconds.
func TestPromHistogramCumulative(t *testing.T) {
	var m Metrics
	m.Observe(StageRun, 500*time.Nanosecond) // bucket 0 (1µs)
	m.Observe(StageRun, 3*time.Microsecond)  // bucket 2 (4µs)
	m.Observe(StageRun, 3*time.Microsecond)
	s := m.Snapshot()
	series := promLines(t, s.Prom())

	le := func(bound string) string {
		return `omni_stage_latency_seconds_bucket{stage="run",le="` + bound + `"}`
	}
	for bound, want := range map[string]string{
		"1e-06": "1", // 1µs: just the 500ns sample
		"2e-06": "1",
		"4e-06": "3", // cumulative: all three
		"+Inf":  "3",
	} {
		if got := series[le(bound)]; got != want {
			t.Errorf("bucket le=%s = %q, want %q", bound, got, want)
		}
	}
	if got := series[`omni_stage_latency_seconds_count{stage="run"}`]; got != "3" {
		t.Errorf("count = %q, want 3", got)
	}
	sum, err := strconv.ParseFloat(series[`omni_stage_latency_seconds_sum{stage="run"}`], 64)
	if err != nil || sum <= 0 || sum > 1e-4 {
		t.Errorf("sum = %v (%v), want small positive seconds", sum, err)
	}
	// Monotonicity across every bucket of every stage.
	for _, stage := range StageNames {
		prev := uint64(0)
		for i := 0; i < trace.NumBuckets; i++ {
			key := `omni_stage_latency_seconds_bucket{stage="` + stage + `",le="` +
				promFloat(trace.BucketBound(i).Seconds()) + `"}`
			v, err := strconv.ParseUint(series[key], 10, 64)
			if err != nil {
				t.Fatalf("missing bucket %s: %v", key, err)
			}
			if v < prev {
				t.Fatalf("stage %s bucket %d not cumulative: %d < %d", stage, i, v, prev)
			}
			prev = v
		}
	}
}

func TestPromTargetAttribution(t *testing.T) {
	var m Metrics
	m.AddRun(target.PPC, target.Result{
		Insts: 100,
		Counts: [target.NumCats]uint64{
			target.CatBase: 60, target.CatAddr: 10, target.CatSFI: 25, target.CatBnop: 5,
		},
	}, 2*time.Millisecond)
	series := promLines(t, m.Snapshot().Prom())

	if got := series[`omni_target_jobs_total{target="ppc"}`]; got != "1" {
		t.Errorf("ppc jobs = %q, want 1", got)
	}
	if got := series[`omni_target_insts_total{target="ppc",cat="`+target.CatSFI.String()+`"}`]; got != "25" {
		t.Errorf("ppc sfi insts = %q, want 25", got)
	}
	pct, err := strconv.ParseFloat(series[`omni_target_sandbox_pct{target="ppc"}`], 64)
	if err != nil || pct != 25 {
		t.Errorf("ppc sandbox pct = %v (%v), want 25", pct, err)
	}
	// Idle targets still expose zero-valued series (scrapers want the
	// full label space).
	if got := series[`omni_target_jobs_total{target="mips"}`]; got != "0" {
		t.Errorf("idle mips jobs = %q, want 0", got)
	}
}

// Every audit outcome series is pre-registered at zero — in the JSON
// snapshot (reason maps carry all keys) and in the Prometheus
// rendering — so the first scrape of a fresh daemon already shows the
// full closed label set, matching the quarantine-reason convention.
func TestPromAuditPreRegistered(t *testing.T) {
	var m Metrics
	s := m.Snapshot()
	for _, r := range AuditReasons {
		if v, ok := s.AuditWarns[r]; !ok || v != 0 {
			t.Errorf("AuditWarns[%q] = %d, %v; want pre-registered 0", r, v, ok)
		}
		if v, ok := s.AuditRejects[r]; !ok || v != 0 {
			t.Errorf("AuditRejects[%q] = %d, %v; want pre-registered 0", r, v, ok)
		}
	}
	lines := promLines(t, s.Prom())
	if v, ok := lines["omni_audit_pass_total"]; !ok || v != "0" {
		t.Errorf("omni_audit_pass_total = %q, %v; want pre-registered 0", v, ok)
	}
	for _, r := range AuditReasons {
		for _, fam := range []string{"omni_audit_warns_total", "omni_audit_rejects_total"} {
			series := fam + `{reason="` + r + `"}`
			if v, ok := lines[series]; !ok || v != "0" {
				t.Errorf("%s = %q, %v; want pre-registered 0", series, v, ok)
			}
		}
	}

	// Counting keeps the closed set: an unknown reason is dropped, a
	// known one lands on its series.
	m.AuditReject("stack")
	m.AuditReject("made-up")
	m.AuditWarn("cost")
	s = m.Snapshot()
	if s.AuditRejects["stack"] != 1 || s.AuditWarns["cost"] != 1 {
		t.Errorf("counts = %v / %v, want stack reject 1, cost warn 1", s.AuditRejects, s.AuditWarns)
	}
	if len(s.AuditRejects) != len(AuditReasons) {
		t.Errorf("reject label set grew: %v", s.AuditRejects)
	}
}
