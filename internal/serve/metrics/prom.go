package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"omniware/internal/trace"
)

// Prom renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): counters as omni_*_total, gauges bare, stage
// latencies as cumulative histograms in seconds, and per-target
// instruction attribution as labelled counters. The output is what
// GET /v1/metrics serves when the scraper asks for
// "text/plain; version=0.0.4".
func (s Snapshot) Prom() string {
	var b strings.Builder
	family := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP omni_%s %s\n# TYPE omni_%s %s\n", name, help, name, typ)
	}
	scalarFamilies := func(rows []*Scalar) {
		for _, sc := range rows {
			if sc.counter != nil {
				family(sc.prom, sc.help, "counter")
				fmt.Fprintf(&b, "omni_%s %d\n", sc.prom, *sc.counter(&s))
			} else {
				family(sc.prom, sc.help, "gauge")
				fmt.Fprintf(&b, "omni_%s %d\n", sc.prom, *sc.gauge(&s))
			}
		}
	}

	// The scalar table, with the audit outcome families after the audit
	// counters: their reason label set is closed (AuditReasons) and
	// every series is pre-registered at zero.
	scalarFamilies(scalars[:peerFillFrom])
	for _, fam := range auditOutcomes {
		family(fam.name+"_total", fam.help, "counter")
		for _, r := range AuditReasons {
			fmt.Fprintf(&b, "omni_%s_total{reason=%q} %d\n", fam.name, r, (*fam.field(&s))[r])
		}
	}

	// Cluster peer-fill counters: totals always (they are part of the
	// cache contract), per-peer series only when running clustered.
	scalarFamilies(scalars[peerFillFrom:])
	if c := s.Cluster; c != nil {
		family("cluster_failovers_total", "Exec requests re-routed after a member failure.", "counter")
		fmt.Fprintf(&b, "omni_cluster_failovers_total %d\n", c.Failovers)
		for _, pc := range peerCounters {
			family("cluster_peer_"+pc.name+"_total", pc.help, "counter")
			for _, p := range c.Peers {
				// A split carries the reason label (every reason
				// pre-registered at zero); a snapshot without it falls
				// back to the reason-blind series.
				if pc.split == nil || len(pc.split(&p)) == 0 {
					fmt.Fprintf(&b, "omni_cluster_peer_%s_total{peer=%q} %d\n", pc.name, p.Peer, *pc.field(&p))
					continue
				}
				for _, reason := range SortedKeys(pc.split(&p)) {
					fmt.Fprintf(&b, "omni_cluster_peer_%s_total{peer=%q,reason=%q} %d\n", pc.name, p.Peer, reason, pc.split(&p)[reason])
				}
			}
		}
		family("cluster_peer_staleness_ms", "Milliseconds since a peer last answered; -1 means never.", "gauge")
		for _, p := range c.Peers {
			fmt.Fprintf(&b, "omni_cluster_peer_staleness_ms{peer=%q} %d\n", p.Peer, p.StalenessMs)
		}
	}

	// Stage latency histograms share one metric family with a stage
	// label, cumulative buckets in seconds.
	family("stage_latency_seconds", "Pipeline stage latency.", "histogram")
	for _, name := range StageOrder(s.Stages) {
		writePromHist(&b, "omni_stage_latency_seconds", `stage="`+name+`"`, s.Stages[name].Hist)
	}

	// Per-target dynamic instruction attribution: the live overhead
	// tables, one counter per (target, category) plus the derived
	// sandbox-overhead percentage.
	family("target_jobs_total", "Jobs run per target machine.", "counter")
	for _, ts := range s.Targets {
		fmt.Fprintf(&b, "omni_target_jobs_total{target=%q} %d\n", ts.Target, ts.Jobs)
	}
	family("target_insts_total", "Dynamic instructions per target by expansion category.", "counter")
	for _, ts := range s.Targets {
		for _, cat := range SortedKeys(ts.Counts) {
			fmt.Fprintf(&b, "omni_target_insts_total{target=%q,cat=%q} %d\n", ts.Target, cat, ts.Counts[cat])
		}
	}
	family("target_sandbox_pct", "Percentage of dynamic instructions spent on SFI checks.", "gauge")
	for _, ts := range s.Targets {
		fmt.Fprintf(&b, "omni_target_sandbox_pct{target=%q} %s\n", ts.Target, promFloat(ts.SandboxPct))
	}
	return b.String()
}

// writePromHist emits one labelled series of a histogram family:
// cumulative le buckets, +Inf, _sum (seconds) and _count.
func writePromHist(b *strings.Builder, family, labels string, h trace.HistSnapshot) {
	cum := uint64(0)
	for i := 0; i < trace.NumBuckets && i < len(h.Counts); i++ {
		cum += h.Counts[i]
		le := promFloat(trace.BucketBound(i).Seconds())
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", family, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", family, labels, h.Count)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", family, labels, promFloat(float64(h.SumNs)/1e9))
	fmt.Fprintf(b, "%s_count{%s} %d\n", family, labels, h.Count)
}

// promFloat formats a float the way Prometheus clients do: shortest
// representation that round-trips.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// SortedKeys returns the labels of a label-split counter in sorted
// order, for stable output.
func SortedKeys(counts map[string]uint64) []string {
	out := make([]string, 0, len(counts))
	for k := range counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
