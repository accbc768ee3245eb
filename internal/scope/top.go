package scope

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

// RenderTop draws one frame of the fleet dashboard (`omnictl top`) as
// plain text: fleet throughput, per-stage latency, per-target sandbox
// overhead, per-peer health, and the slowest stitched traces. When a
// previous frame is supplied the counters and quantiles are interval
// values (cur minus prev over dt — true interval quantiles from
// bucket-wise histogram subtraction); with no previous frame the
// process-lifetime totals are shown.
func RenderTop(cur, prev *Fleet, dt time.Duration) string {
	var b strings.Builder
	if cur == nil {
		return "omniscope: no fleet data\n"
	}
	up, down := 0, 0
	for _, nr := range cur.Nodes {
		if nr.Err == "" {
			up++
		} else {
			down++
		}
	}
	window := "lifetime"
	if prev != nil && dt > 0 {
		window = fmt.Sprintf("last %s", dt.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "omniscope  origin=%s  nodes=%d up", cur.Origin, up)
	if down > 0 {
		fmt.Fprintf(&b, " / %d down", down)
	}
	fmt.Fprintf(&b, "  window=%s\n", window)
	for _, nr := range cur.Nodes {
		if nr.Err != "" {
			fmt.Fprintf(&b, "  DOWN %s: %s\n", nr.Node, nr.Err)
		}
	}
	f := cur.Fleet
	if f == nil {
		b.WriteString("no answering nodes\n")
		return b.String()
	}
	// iv is what the frame counts: the interval since the previous
	// frame when there is one, the lifetime totals otherwise.
	iv := *f
	rate := ""
	if prev != nil && prev.Fleet != nil {
		iv = f.Sub(*prev.Fleet)
		if dt > 0 {
			rate = fmt.Sprintf("  jobs/s=%.1f", float64(iv.JobsRun+iv.JobsFailed)/dt.Seconds())
		}
	}
	failovers := uint64(0)
	if iv.Cluster != nil {
		failovers = iv.Cluster.Failovers
	}
	fmt.Fprintf(&b, "jobs submitted=%d run=%d failed=%d%s  queue=%d  failovers=%d  cache_hit_rate=%.2f\n",
		iv.JobsSubmitted, iv.JobsRun, iv.JobsFailed, rate, f.QueueDepth, failovers, f.HitRate())

	// Stage latency table, interval quantiles when a window exists.
	fmt.Fprintf(&b, "\n%-12s %8s %10s %10s %10s\n", "stage", "count", "p50", "p95", "p99")
	for _, name := range metrics.StageNames {
		h := iv.Stages[name].Hist
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %8d %10s %10s %10s\n",
			name, h.Count, roundDur(h.P50()), roundDur(h.P95()), roundDur(h.P99()))
	}

	// Per-target sandbox overhead: the fleet-wide live overhead table.
	fmt.Fprintf(&b, "\n%-8s %10s %14s %10s\n", "target", "jobs", "insts", "sandbox%")
	for _, ts := range f.Targets {
		if ts.Jobs == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8s %10d %14d %9.2f%%\n", ts.Target, ts.Jobs, ts.Insts, ts.SandboxPct)
	}

	if f.Cluster != nil && len(f.Cluster.Peers) > 0 {
		fmt.Fprintf(&b, "\n%-28s %6s %6s %6s %7s %10s\n", "peer (fleet-merged)", "hits", "quar", "errs", "pushes", "staleness")
		for _, p := range f.Cluster.Peers {
			stale := "never"
			if p.StalenessMs >= 0 {
				stale = (time.Duration(p.StalenessMs) * time.Millisecond).String()
			}
			fmt.Fprintf(&b, "%-28s %6d %6d %6d %7d %10s\n",
				p.Peer, p.Hits, p.Quarantines, p.Errors, p.Pushes, stale)
			if reasons := nonzeroReasons(p.QuarantinesByReason); reasons != "" {
				fmt.Fprintf(&b, "%-28s %s\n", "", reasons)
			}
		}
	}

	if len(cur.Slow) > 0 {
		b.WriteString("\nslow traces (fleet top-K)\n")
		for _, ex := range cur.Slow {
			fmt.Fprintf(&b, "  %-32s node=%-24s %10s  sandbox=%5.2f%%  %s\n",
				ex.ID, ex.Node, roundDur(time.Duration(ex.DurUs)*time.Microsecond), ex.SandboxPct, ex.Status)
		}
	}
	return b.String()
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// nonzeroReasons renders the nonzero entries of a quarantine reason
// split as "reason=n" pairs, sorted, or "" when all zero.
func nonzeroReasons(m map[string]uint64) string {
	var parts []string
	for k, v := range m {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	sort.Strings(parts)
	return "quarantines: " + strings.Join(parts, " ")
}

// SandboxPctOfRemote sums the per-target sandbox percentage a remote
// subtree reports via span attributes, used by `omnictl trace` to
// annotate remote segments. Returns false when the subtree carries no
// attribution.
func SandboxPctOfRemote(sp *trace.Span) (float64, bool) {
	if sp == nil {
		return 0, false
	}
	var find func(*trace.Span) (float64, bool)
	find = func(s *trace.Span) (float64, bool) {
		for _, a := range s.Attrs {
			if a.Key == "sandbox_pct" {
				var v float64
				if _, err := fmt.Sscanf(a.Val, "%f", &v); err == nil {
					return v, true
				}
			}
		}
		for _, c := range s.Children {
			if v, ok := find(c); ok {
				return v, ok
			}
		}
		return 0, false
	}
	return find(sp)
}
