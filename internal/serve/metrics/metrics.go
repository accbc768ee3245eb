// Package metrics holds the serving layer's counters, gauges, latency
// histograms and per-target instruction-attribution counters. The
// hot-path updates are lock-free atomics; Snapshot produces a
// consistent-enough copy for reporting, Text renders it in a fixed
// order for logs and `omnictl metrics -text`, and Prom (prom.go) renders
// the Prometheus text exposition format for scrapers.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"omniware/internal/target"
	"omniware/internal/trace"
)

// targetCounters is the per-machine section: job and instruction
// counters by expansion category (the live form of the paper's
// overhead tables) plus a run-latency histogram.
type targetCounters struct {
	jobs   atomic.Uint64
	counts [target.NumCats]atomic.Uint64
	run    trace.Histogram
}

// Metrics is the live counter set one Server owns. The zero value is
// ready to use. Cache counters live in the cache itself (see
// internal/mcache.Stats); the server merges them into the Snapshot it
// reports.
type Metrics struct {
	// live holds the scalars the serving layer counts, in the Snapshot
	// fields the table's rows point at, touched only through sync/atomic.
	// It comes first and Snapshot leads with its 64-bit scalars (a test
	// checks), which gives 32-bit platforms the alignment atomics need.
	live Snapshot

	stages   [len(StageNames)]trace.Histogram
	outcomes [len(auditOutcomes)][len(AuditReasons)]atomic.Uint64
	targets  [4]targetCounters // indexed by target.Arch
}

// Add moves one scalar the serving layer counts: a single atomic add.
func (m *Metrics) Add(sc *Scalar, n int64) {
	if sc.counter != nil {
		atomic.AddUint64(sc.counter(&m.live), uint64(n))
	} else {
		atomic.AddInt64(sc.gauge(&m.live), n)
	}
}

// Observe records one latency sample for a pipeline stage.
func (m *Metrics) Observe(st Stage, d time.Duration) { m.stages[st].Observe(d) }

// AuditWarn counts one warn-mode audit violation for reason (an
// AuditReasons member; anything else is dropped rather than growing
// the closed label set).
func (m *Metrics) AuditWarn(reason string) { m.auditOutcome(auditWarns, reason) }

// AuditReject counts one enforce-mode audit rejection for reason.
func (m *Metrics) AuditReject(reason string) { m.auditOutcome(auditRejects, reason) }

func (m *Metrics) auditOutcome(family int, reason string) {
	for i, r := range AuditReasons {
		if r == reason {
			m.outcomes[family][i].Add(1)
		}
	}
}

// AddRun charges one finished run to its target machine's counters.
func (m *Metrics) AddRun(a target.Arch, res target.Result, d time.Duration) {
	tc := &m.targets[a]
	tc.jobs.Add(1)
	for i, n := range res.Counts {
		tc.counts[i].Add(n)
	}
	tc.run.Observe(d)
}

// StageSnapshot summarizes one stage's latency distribution.
type StageSnapshot struct {
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`

	// Hist carries the raw buckets — the Prometheus rendering walks
	// them, and the JSON snapshot exposes them so interval consumers
	// (omniload's before/after delta) can subtract two snapshots
	// bucket-wise and compute true interval quantiles instead of
	// conflating them with the process-lifetime ones above.
	Hist trace.HistSnapshot `json:"hist"`
}

// Us is d in microseconds, the unit every latency summary reports.
func Us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// stageOf summarizes a histogram: the quantiles always come from the
// buckets given, so a merged or subtracted histogram is re-quantiled,
// never averaged.
func stageOf(h trace.HistSnapshot) StageSnapshot {
	return StageSnapshot{Count: h.Count, P50Us: Us(h.P50()), P95Us: Us(h.P95()), P99Us: Us(h.P99()), Hist: h}
}

// TargetSnapshot is the per-machine overhead-attribution report: the
// live equivalent of one row of the paper's Tables 3–5.
type TargetSnapshot struct {
	Target     string            `json:"target"`
	Jobs       uint64            `json:"jobs"`
	Insts      uint64            `json:"insts"`
	AppInsts   uint64            `json:"app_insts"`
	SandboxPct float64           `json:"sandbox_pct"`
	Sandbox    uint64            `json:"sandbox_insts"`
	Sched      uint64            `json:"sched_insts"`
	Counts     map[string]uint64 `json:"counts"`
	Run        StageSnapshot     `json:"run"`
}

// Snapshot is a point-in-time copy of the counters plus the cache
// section the server fills in.
type Snapshot struct {
	JobsSubmitted   uint64 `json:"jobs_submitted"`
	JobsRun         uint64 `json:"jobs_run"`
	JobsFailed      uint64 `json:"jobs_failed"`
	FaultsContained uint64 `json:"faults_contained"`
	Timeouts        uint64 `json:"timeouts"`
	Translations    uint64 `json:"translations"`
	SimInsts        uint64 `json:"sim_insts"`
	SimCycles       uint64 `json:"sim_cycles"`
	QueueDepth      int64  `json:"queue_depth"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheCoalesced uint64 `json:"cache_coalesced"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheRejected  uint64 `json:"cache_rejected"`
	CacheEntries   int64  `json:"cache_entries"`
	CacheBytes     int64  `json:"cache_bytes"`

	CacheDiskHits        uint64 `json:"cache_disk_hits"`
	CacheDiskWrites      uint64 `json:"cache_disk_writes"`
	CacheDiskQuarantines uint64 `json:"cache_disk_quarantines"`

	// CacheDisagreements counts dual-gate admissions where the two SFI
	// verifiers split the verdict (always also a rejection). Nonzero
	// means a verifier bug; alert on any increase.
	CacheDisagreements uint64 `json:"cache_disagreements"`

	// Cluster peer-fill counters (zero outside cluster mode; the JSON
	// fields are omitted so single-node snapshots are unchanged).
	CachePeerHits        uint64 `json:"cache_peer_hits,omitempty"`
	CachePeerQuarantines uint64 `json:"cache_peer_quarantines,omitempty"`
	CacheSpotChecks      uint64 `json:"cache_spot_checks,omitempty"`
	CacheSpotCheckFails  uint64 `json:"cache_spot_check_fails,omitempty"`

	// Audit pipeline counters (the cache's memoized derivations) and
	// gate outcomes. The warn/reject maps carry every AuditReasons key,
	// pre-registered at zero.
	CacheAudits           uint64 `json:"cache_audits"`
	CacheAuditHits        uint64 `json:"cache_audit_hits"`
	CacheAuditDiskWrites  uint64 `json:"cache_audit_disk_writes"`
	CacheAuditQuarantines uint64 `json:"cache_audit_quarantines"`

	AuditPass    uint64            `json:"audit_pass"`
	AuditWarns   map[string]uint64 `json:"audit_warns"`
	AuditRejects map[string]uint64 `json:"audit_rejects"`

	Stages  map[string]StageSnapshot `json:"stages"`
	Targets []TargetSnapshot         `json:"targets"`

	// Cluster, when the server runs as a cluster member, carries the
	// membership view and per-peer protocol counters.
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
}

// PeerStats is one peer's protocol counters as seen from this node.
type PeerStats struct {
	Peer        string `json:"peer"`
	Hits        uint64 `json:"hits"`        // translations admitted from this peer
	Quarantines uint64 `json:"quarantines"` // candidates from this peer the gate refused
	Errors      uint64 `json:"errors"`      // transport/protocol failures probing this peer
	Pushes      uint64 `json:"pushes"`      // hot-entry replications sent to this peer

	// QuarantinesByReason splits Quarantines by the closed reason set
	// (mcache.QuarantineReasons). Every reason is pre-registered at
	// zero so a scraper sees the full label set from the first scrape.
	QuarantinesByReason map[string]uint64 `json:"quarantines_by_reason,omitempty"`

	// StalenessMs is how long ago this peer last answered anything
	// (including a clean miss); -1 means never contacted.
	StalenessMs int64 `json:"staleness_ms"`
}

// ClusterSnapshot is the cluster section of a Snapshot: pure data, so
// the cluster package can fill it without this package importing it.
type ClusterSnapshot struct {
	Self      string      `json:"self"`
	Members   []string    `json:"members"`
	Failovers uint64      `json:"failovers"` // exec requests re-routed after a member failure
	Peers     []PeerStats `json:"peers,omitempty"`
}

// Snapshot copies the live counters (without the cache section).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Stages: make(map[string]StageSnapshot, len(StageNames))}
	for _, sc := range scalars {
		if sc.counter != nil {
			*sc.counter(&s) = atomic.LoadUint64(sc.counter(&m.live))
		} else {
			*sc.gauge(&s) = atomic.LoadInt64(sc.gauge(&m.live))
		}
	}
	for f, fam := range auditOutcomes {
		byReason := map[string]uint64{}
		for i, r := range AuditReasons {
			byReason[r] = m.outcomes[f][i].Load()
		}
		*fam.field(&s) = byReason
	}
	for st, name := range StageNames {
		s.Stages[name] = stageOf(m.stages[st].Snapshot())
	}
	for a := range m.targets {
		tc := &m.targets[a]
		ts := TargetSnapshot{
			Target: target.Arch(a).String(),
			Jobs:   tc.jobs.Load(),
			Counts: map[string]uint64{},
			Run:    stageOf(tc.run.Snapshot()),
		}
		var res target.Result
		for c := range tc.counts {
			res.Counts[c] = tc.counts[c].Load()
			ts.Counts[target.ExpCat(c).String()] = res.Counts[c]
		}
		attr := res.Attribution()
		ts.Insts = attr.Total()
		ts.AppInsts = attr.App
		ts.Sandbox = attr.Sandbox
		ts.Sched = attr.Sched
		ts.SandboxPct = attr.SandboxPct()
		s.Targets = append(s.Targets, ts)
	}
	return s
}

// MergeSnapshots adds two snapshots counter-wise — the fleet
// aggregation primitive behind /v1/cluster/metrics and omniload's
// multi-node reports. Counters and gauges sum; stage and per-target
// histograms merge bucket-wise (HistSnapshot.Add) with quantiles
// recomputed from the merged buckets, never averaged; cluster sections
// merge per peer address. The inputs are not mutated.
func MergeSnapshots(a, b Snapshot) Snapshot {
	out := a
	for _, sc := range scalars {
		if sc.counter != nil {
			*sc.counter(&out) += *sc.counter(&b)
		} else {
			*sc.gauge(&out) += *sc.gauge(&b)
		}
	}
	for _, fam := range auditOutcomes {
		*fam.field(&out) = plus.labels(*fam.field(&a), *fam.field(&b))
	}

	out.Stages = map[string]StageSnapshot{}
	for n, st := range a.Stages {
		out.Stages[n] = st
	}
	for n, st := range b.Stages {
		out.Stages[n] = stageOf(plus.h(out.Stages[n].Hist, st.Hist))
	}

	out.Targets = nil
	byName := map[string]int{}
	for _, set := range [][]TargetSnapshot{a.Targets, b.Targets} {
		for _, ts := range set {
			i, ok := byName[ts.Target]
			if !ok {
				byName[ts.Target] = len(out.Targets)
				ts.Counts = plus.labels(map[string]uint64{}, ts.Counts)
				out.Targets = append(out.Targets, ts)
				continue
			}
			plus.target(&out.Targets[i], ts)
		}
	}
	sort.Slice(out.Targets, func(i, j int) bool { return out.Targets[i].Target < out.Targets[j].Target })

	out.Cluster = mergeCluster(a.Cluster, b.Cluster)
	return out
}

// Sub is the interval between two snapshots of one daemon (or one
// fleet): s minus the earlier prev. Counters subtract, clamping at
// zero; gauges keep their current level; stage and per-target
// histograms subtract bucket-wise (HistSnapshot.Sub) and are
// re-quantiled, so the quantiles describe the interval alone; targets
// and peers pair up by name, one that prev lacks counting from zero.
// Every interval consumer — omniload's server delta, omnictl bench,
// the omnictl top dashboard — goes through here.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	for _, sc := range scalars {
		if sc.counter != nil {
			*sc.counter(&out) = minus.n(*sc.counter(&s), *sc.counter(&prev))
		}
	}
	for _, fam := range auditOutcomes {
		*fam.field(&out) = minus.labels(*fam.field(&s), *fam.field(&prev))
	}

	out.Stages = map[string]StageSnapshot{}
	for n, st := range s.Stages {
		out.Stages[n] = stageOf(minus.h(st.Hist, prev.Stages[n].Hist))
	}

	prevTargets := map[string]TargetSnapshot{}
	for _, ts := range prev.Targets {
		prevTargets[ts.Target] = ts
	}
	out.Targets = nil
	for _, ts := range s.Targets {
		minus.target(&ts, prevTargets[ts.Target])
		out.Targets = append(out.Targets, ts)
	}

	if s.Cluster != nil {
		c := *s.Cluster
		prevPeers := map[string]PeerStats{}
		if prev.Cluster != nil {
			c.Failovers = minus.n(c.Failovers, prev.Cluster.Failovers)
			for _, p := range prev.Cluster.Peers {
				prevPeers[p.Peer] = p
			}
		}
		c.Peers = nil
		for _, p := range s.Cluster.Peers {
			minus.peer(&p, prevPeers[p.Peer])
			c.Peers = append(c.Peers, p)
		}
		out.Cluster = &c
	}
	return out
}

// arith is the arithmetic a snapshot-wide fold applies to every
// counter and histogram it meets: plus for the fleet merge, minus for
// the interval between two snapshots of one daemon.
type arith struct{ sub bool }

var plus, minus = arith{}, arith{sub: true}

// n combines two counter values. Counters only grow, so a negative
// difference means the snapshots straddle a restart (or are swapped);
// it clamps to zero.
func (ar arith) n(a, b uint64) uint64 {
	switch {
	case !ar.sub:
		return a + b
	case a > b:
		return a - b
	}
	return 0
}

// h combines two histograms bucket-wise.
func (ar arith) h(a, b trace.HistSnapshot) trace.HistSnapshot {
	if ar.sub {
		return a.Sub(b)
	}
	return a.Add(b)
}

// labels combines two label-split counter maps key-wise, keeping the
// pre-registered zero keys; nil in, nil out (hand-built snapshots).
func (ar arith) labels(a, b map[string]uint64) map[string]uint64 {
	if a == nil && b == nil {
		return nil
	}
	out := map[string]uint64{}
	for k, v := range a {
		out[k] = ar.n(v, b[k])
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out[k] = ar.n(0, v)
		}
	}
	return out
}

// target folds o into t: counters and category counts combine, the
// run histogram combines bucket-wise, and the sandbox percentage is
// recomputed from the result.
func (ar arith) target(t *TargetSnapshot, o TargetSnapshot) {
	t.Jobs = ar.n(t.Jobs, o.Jobs)
	t.Insts = ar.n(t.Insts, o.Insts)
	t.AppInsts = ar.n(t.AppInsts, o.AppInsts)
	t.Sandbox = ar.n(t.Sandbox, o.Sandbox)
	t.Sched = ar.n(t.Sched, o.Sched)
	t.Counts = ar.labels(t.Counts, o.Counts)
	t.Run = stageOf(ar.h(t.Run.Hist, o.Run.Hist))
	if t.Insts > 0 {
		t.SandboxPct = 100 * float64(t.Sandbox) / float64(t.Insts)
	}
}

// peer folds o into p, leaving the staleness gauge alone.
func (ar arith) peer(p *PeerStats, o PeerStats) {
	for _, pc := range peerCounters {
		*pc.field(p) = ar.n(*pc.field(p), *pc.field(&o))
	}
	p.QuarantinesByReason = ar.labels(p.QuarantinesByReason, o.QuarantinesByReason)
}

// mergeCluster merges two cluster sections per peer address: counters
// sum, reason splits merge key-wise, and staleness keeps the freshest
// (smallest non-negative) contact age. Self keeps the first non-empty
// value (the fan-out origin); members union.
func mergeCluster(a, b *ClusterSnapshot) *ClusterSnapshot {
	if a == nil && b == nil {
		return nil
	}
	out := &ClusterSnapshot{}
	members := map[string]bool{}
	byPeer := map[string]int{}
	for _, cs := range []*ClusterSnapshot{a, b} {
		if cs == nil {
			continue
		}
		if out.Self == "" {
			out.Self = cs.Self
		}
		out.Failovers += cs.Failovers
		for _, m := range cs.Members {
			members[m] = true
		}
		for _, p := range cs.Peers {
			i, ok := byPeer[p.Peer]
			if !ok {
				byPeer[p.Peer] = len(out.Peers)
				p.QuarantinesByReason = plus.labels(map[string]uint64{}, p.QuarantinesByReason)
				out.Peers = append(out.Peers, p)
				continue
			}
			q := &out.Peers[i]
			plus.peer(q, p)
			if q.StalenessMs < 0 || (p.StalenessMs >= 0 && p.StalenessMs < q.StalenessMs) {
				q.StalenessMs = p.StalenessMs
			}
		}
	}
	for m := range members {
		out.Members = append(out.Members, m)
	}
	sort.Strings(out.Members)
	sort.Slice(out.Peers, func(i, j int) bool { return out.Peers[i].Peer < out.Peers[j].Peer })
	return out
}

// HitRate is the fraction of cache lookups served without a
// translation (memory hits, disk hits, peer fills, and coalesced
// waits), or 0 with no lookups.
func (s Snapshot) HitRate() float64 {
	warm := s.CacheHits + s.CacheCoalesced + s.CacheDiskHits + s.CachePeerHits
	total := warm + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(warm) / float64(total)
}

// Text renders the snapshot as fixed-order "name value" lines: the
// counter block first (stable since the first serving release), then
// stage latency lines, then one attribution line per active target.
func (s Snapshot) Text() string {
	var b strings.Builder
	w := func(name string, v any) { fmt.Fprintf(&b, "%-18s %v\n", name, v) }
	scalarLines := func(rows []*Scalar) {
		for _, sc := range rows {
			if sc.counter != nil {
				w(sc.name, *sc.counter(&s))
			} else {
				w(sc.name, *sc.gauge(&s))
			}
		}
	}
	scalarLines(scalars[:peerFillFrom])
	for _, fam := range auditOutcomes {
		for _, r := range AuditReasons {
			w(fam.text+r, (*fam.field(&s))[r])
		}
	}
	if s.Cluster != nil || s.CachePeerHits+s.CachePeerQuarantines+s.CacheSpotChecks > 0 {
		scalarLines(scalars[peerFillFrom:])
	}
	w("cache_hit_rate", fmt.Sprintf("%.2f", s.HitRate()))
	if s.Cluster != nil {
		w("cluster_self", s.Cluster.Self)
		w("cluster_members", len(s.Cluster.Members))
		w("cluster_failovers", s.Cluster.Failovers)
		for _, p := range s.Cluster.Peers {
			fmt.Fprintf(&b, "cluster_peer %-14s", p.Peer)
			for _, pc := range peerCounters {
				fmt.Fprintf(&b, " %s=%d", pc.name, *pc.field(&p))
			}
			fmt.Fprintf(&b, " staleness_ms=%d\n", p.StalenessMs)
		}
	}
	for _, name := range StageOrder(s.Stages) {
		st := s.Stages[name]
		fmt.Fprintf(&b, "stage_%-12s count=%d p50=%.0fus p95=%.0fus p99=%.0fus\n",
			name, st.Count, st.P50Us, st.P95Us, st.P99Us)
	}
	for _, ts := range s.Targets {
		if ts.Jobs == 0 {
			continue
		}
		fmt.Fprintf(&b, "target_%-11s jobs=%d insts=%d app=%d sfi=%d sched=%d sandbox_pct=%.2f\n",
			ts.Target, ts.Jobs, ts.Insts, ts.AppInsts, ts.Sandbox, ts.Sched, ts.SandboxPct)
	}
	return b.String()
}

// StageOrder returns StageNames restricted to the stages present in
// the map (hand-built snapshots in tests may carry a subset), in the
// canonical order, followed by any extras sorted by name.
func StageOrder[V any](stages map[string]V) []string {
	var out []string
	for _, n := range StageNames {
		if _, ok := stages[n]; ok {
			out = append(out, n)
		}
	}
	var extra []string
	for n := range stages {
		if !slices.Contains(out, n) {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
