// Package load is the load driver: it fires a deterministic, seeded
// schedule of execution requests at an omniserved instance (or a
// cluster of them) over real HTTP — open-loop (fixed arrival rate) or
// closed-loop (N concurrent clients) — across a configurable mix of
// workloads and target machines, and distills the run into a Report.
//
// The report has two vantage points: the client side (what the
// generator observed end to end, including sheds, retries and the
// interpreter-parity verdicts of Config.Check) and the server side
// (the interval between two /v1/metrics snapshots taken around the
// run, so stage quantiles describe this run rather than the server's
// lifetime). It is a driver, not a measuring instrument: performance
// claims come from omnimark (benchmark/), which records its
// environment and repeats its runs.
package load

import (
	"fmt"
	"strings"

	"omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

// Schema tags the report layout. Nothing reads reports back, so there
// is one tag and no version range; v4 made the server section a
// metrics.Snapshot.
const Schema = "omniload/v4"

// Report is one load run.
type Report struct {
	Schema string        `json:"schema"`
	Config ConfigSummary `json:"config"`
	Load   LoadStats     `json:"load"`

	// Server is the server-side view of the run: /v1/metrics sampled
	// after the run minus the sample taken before it (Snapshot.Sub),
	// summed over the members in cluster mode. It is the daemon's own
	// schema, so a new metric appears here with no edit to this package.
	Server metrics.Snapshot `json:"server"`
}

// ConfigSummary pins everything needed to reproduce the run.
type ConfigSummary struct {
	Mode       string             `json:"mode"` // open | closed
	Rate       float64            `json:"rate,omitempty"`
	Clients    int                `json:"clients,omitempty"`
	Nodes      int                `json:"nodes,omitempty"` // cluster members driven (0 = single node)
	Jobs       int                `json:"jobs"`
	Seed       int64              `json:"seed"`
	Scale      int                `json:"scale"`
	SFI        bool               `json:"sfi"`
	Prewarm    bool               `json:"prewarm"`
	DeadlineMs int                `json:"deadline_ms,omitempty"`
	Workloads  map[string]float64 `json:"workloads"`
	Targets    map[string]float64 `json:"targets"`
}

// LatencyStats summarizes one latency distribution in microseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
}

func latStats(s trace.HistSnapshot) LatencyStats {
	return LatencyStats{
		Count:  s.Count,
		P50Us:  metrics.Us(s.P50()),
		P95Us:  metrics.Us(s.P95()),
		P99Us:  metrics.Us(s.P99()),
		MeanUs: metrics.Us(s.Mean()),
	}
}

// LoadStats is the client-side view: what the generator observed over
// the wire, including backpressure the server-side counters cannot
// see (sheds never become jobs).
type LoadStats struct {
	DurationSec float64 `json:"duration_sec"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	Jobs    uint64 `json:"jobs"`   // scheduled requests completed (one way or another)
	OK      uint64 `json:"ok"`     // module exited cleanly
	Faults  uint64 `json:"faults"` // contained module faults
	Errors  uint64 `json:"errors"` // job-level errors (budget, deadline, refusals that out-ran the retry budget)
	Sheds   uint64 `json:"sheds"`  // 429/503 responses absorbed by retries
	Warm    uint64 `json:"warm"`   // translation served from cache
	Cold    uint64 `json:"cold"`   // translation paid on the spot
	Checked uint64 `json:"checked,omitempty"`
	Parity  uint64 `json:"parity_failures"` // interpreter disagreements (must be 0)

	// Failovers counts cluster-mode node abandonments (dead or
	// persistently shedding members skipped by the routing client).
	// Distinct from Server.Cluster.Failovers, the members' own count of
	// peer fetches that fell through to the next owner.
	Failovers uint64 `json:"failovers,omitempty"`

	Latency     LatencyStats `json:"latency"`      // end-to-end client wall clock
	WarmLatency LatencyStats `json:"warm_latency"` // latency of cache-hit jobs
	ColdLatency LatencyStats `json:"cold_latency"` // latency of cache-miss jobs
}

// Validate is the self-check Run applies to the report it assembled:
// the client-side accounting identity and quantile monotonicity on
// both views — tight enough to catch a generator that lost a job or a
// report built from mismatched snapshots.
func Validate(r *Report) error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if r.Load.Jobs == 0 {
		bad("no jobs recorded")
	}
	if got := r.Load.OK + r.Load.Faults + r.Load.Errors; got != r.Load.Jobs {
		bad("ok+faults+errors = %d, want jobs = %d", got, r.Load.Jobs)
	}
	if got := r.Load.Warm + r.Load.Cold; got > r.Load.Jobs {
		bad("warm+cold = %d exceeds jobs = %d", got, r.Load.Jobs)
	}
	if r.Load.Parity > r.Load.Checked {
		bad("parity failures %d exceed checked %d", r.Load.Parity, r.Load.Checked)
	}
	if r.Load.DurationSec <= 0 {
		bad("non-positive duration %v", r.Load.DurationSec)
	}
	if r.Load.JobsPerSec <= 0 && r.Load.Jobs > 0 {
		bad("non-positive jobs/sec with %d jobs", r.Load.Jobs)
	}
	mono := func(name string, p50, p95, p99 float64) {
		if p50 < 0 || p50 > p95 || p95 > p99 {
			bad("%s quantiles not monotone: p50=%.1f p95=%.1f p99=%.1f", name, p50, p95, p99)
		}
	}
	mono("latency", r.Load.Latency.P50Us, r.Load.Latency.P95Us, r.Load.Latency.P99Us)
	for name, st := range r.Server.Stages {
		mono("stage "+name, st.P50Us, st.P95Us, st.P99Us)
	}
	for _, ts := range r.Server.Targets {
		if ts.SandboxPct < 0 || ts.SandboxPct > 100 {
			bad("target %s sandbox_pct %.2f outside [0,100]", ts.Target, ts.SandboxPct)
		}
	}
	if r.Config.Jobs > 0 && uint64(r.Config.Jobs) != r.Load.Jobs {
		bad("config jobs %d != load jobs %d", r.Config.Jobs, r.Load.Jobs)
	}
	if len(errs) > 0 {
		return fmt.Errorf("load: invalid report: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Format renders a report for humans: the client-side summary, then
// the server interval as the daemon's own text rendering.
func Format(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "omniload %s  mode=%s jobs=%d seed=%d\n",
		r.Schema, r.Config.Mode, r.Load.Jobs, r.Config.Seed)
	fmt.Fprintf(&b, "  throughput   %.1f jobs/sec over %.2fs\n", r.Load.JobsPerSec, r.Load.DurationSec)
	fmt.Fprintf(&b, "  outcomes     ok=%d faults=%d errors=%d sheds=%d parity_failures=%d\n",
		r.Load.OK, r.Load.Faults, r.Load.Errors, r.Load.Sheds, r.Load.Parity)
	fmt.Fprintf(&b, "  cache        warm=%d cold=%d hit_rate=%.2f\n",
		r.Load.Warm, r.Load.Cold, r.Server.HitRate())
	if r.Config.Nodes > 0 {
		fmt.Fprintf(&b, "  cluster      nodes=%d failovers=%d\n", r.Config.Nodes, r.Load.Failovers)
	}
	fmt.Fprintf(&b, "  latency      p50=%.0fus p95=%.0fus p99=%.0fus\n",
		r.Load.Latency.P50Us, r.Load.Latency.P95Us, r.Load.Latency.P99Us)
	if r.Load.Warm > 0 {
		fmt.Fprintf(&b, "  warm latency p50=%.0fus p95=%.0fus p99=%.0fus\n",
			r.Load.WarmLatency.P50Us, r.Load.WarmLatency.P95Us, r.Load.WarmLatency.P99Us)
	}
	b.WriteString("server interval:\n")
	b.WriteString(r.Server.Text())
	return b.String()
}
