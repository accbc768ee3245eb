package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"omniware/internal/target"
	"omniware/internal/trace"
)

func TestSnapshotCopiesCounters(t *testing.T) {
	var m Metrics
	m.Add(JobsSubmitted, 7)
	m.Add(JobsRun, 5)
	m.Add(JobsFailed, 2)
	m.Add(FaultsContained, 1)
	m.Add(Timeouts, 1)
	m.Add(Translations, 3)
	m.Add(SimInsts, 1000)
	m.Add(SimCycles, 1500)
	m.Add(QueueDepth, 4)
	m.Add(QueueDepth, -1)

	s := m.Snapshot()
	if s.JobsSubmitted != 7 || s.JobsRun != 5 || s.JobsFailed != 2 ||
		s.FaultsContained != 1 || s.Timeouts != 1 || s.Translations != 3 ||
		s.SimInsts != 1000 || s.SimCycles != 1500 || s.QueueDepth != 3 {
		t.Fatalf("snapshot %+v", s)
	}
	// The snapshot is a copy: later updates don't show in it.
	m.Add(JobsRun, 10)
	if s.JobsRun != 5 {
		t.Fatal("snapshot aliased the live counters")
	}
}

func TestHitRate(t *testing.T) {
	cases := []struct {
		name string
		s    Snapshot
		want float64
	}{
		{"empty", Snapshot{}, 0},
		{"all-miss", Snapshot{CacheMisses: 4}, 0},
		{"all-hit", Snapshot{CacheHits: 4}, 1},
		{"memory-only", Snapshot{CacheHits: 3, CacheMisses: 1}, 0.75},
		{"coalesced-counts-warm", Snapshot{CacheHits: 1, CacheCoalesced: 1, CacheMisses: 2}, 0.5},
		{"disk-counts-warm", Snapshot{CacheDiskHits: 3, CacheMisses: 1}, 0.75},
		{"all-tiers", Snapshot{CacheHits: 2, CacheCoalesced: 1, CacheDiskHits: 1, CacheMisses: 4}, 0.5},
	}
	for _, c := range cases {
		if got := c.s.HitRate(); got != c.want {
			t.Errorf("%s: HitRate() = %v, want %v", c.name, got, c.want)
		}
	}
}

// Text is a stable machine-greppable format: fixed order, fixed
// padding. Tools (and the CI smoke scripts) match on exact
// lines, so lock the format down. The counter block is followed by
// optional stage and per-target attribution lines.
func TestTextFormat(t *testing.T) {
	s := Snapshot{
		JobsSubmitted: 49, JobsRun: 48, JobsFailed: 1,
		CacheHits: 28, CacheCoalesced: 4, CacheMisses: 17,
		CacheDiskHits: 2,
	}
	text := s.Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	wantOrder := []string{
		"jobs_submitted", "jobs_run", "jobs_failed", "faults_contained",
		"timeouts", "jobs_preempted", "translations", "sim_insts", "sim_cycles", "queue_depth",
		"cache_hits", "cache_coalesced", "cache_misses", "cache_evictions",
		"cache_rejected", "cache_entries", "cache_bytes",
		"cache_disk_hits", "cache_disk_writes", "cache_disk_quarantines",
		"audit_pass",
		"audit_warn_stack", "audit_warn_cost", "audit_warn_capability", "audit_warn_recursion",
		"audit_reject_stack", "audit_reject_cost", "audit_reject_capability", "audit_reject_recursion",
		"cache_hit_rate",
	}
	if len(lines) != len(wantOrder) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(wantOrder), text)
	}
	for i, name := range wantOrder {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], name)
		}
	}
	for _, want := range []string{
		"jobs_run           48",
		"cache_disk_hits    2",
		"cache_hit_rate     0.67",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing exact line %q in:\n%s", want, text)
		}
	}
}

// Stage latency and per-target attribution lines follow the counter
// block: stages in the canonical StageNames order, targets only when
// they ran at least one job.
func TestTextStageAndTargetLines(t *testing.T) {
	var m Metrics
	m.Observe(StageQueueWait, 100*time.Microsecond)
	m.Observe(StageRun, 3*time.Millisecond)
	m.AddRun(target.MIPS, target.Result{
		Insts: 120,
		Counts: [target.NumCats]uint64{
			target.CatBase: 80, target.CatSFI: 30, target.CatBnop: 10,
		},
	}, 3*time.Millisecond)

	text := m.Snapshot().Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var stageIdx []string
	for _, l := range lines {
		if strings.HasPrefix(l, "stage_") {
			stageIdx = append(stageIdx, strings.Fields(l)[0])
		}
	}
	want := []string{"stage_decode", "stage_audit", "stage_queue_wait", "stage_translate", "stage_peer_fetch", "stage_verify", "stage_run"}
	if len(stageIdx) != len(want) {
		t.Fatalf("stage lines %v, want %v", stageIdx, want)
	}
	for i := range want {
		if stageIdx[i] != want[i] {
			t.Fatalf("stage lines %v, want %v", stageIdx, want)
		}
	}
	if !strings.Contains(text, "stage_queue_wait   count=1") {
		t.Errorf("queue_wait stage line missing count:\n%s", text)
	}
	var targetLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "target_") {
			targetLines = append(targetLines, l)
		}
	}
	if len(targetLines) != 1 {
		t.Fatalf("target lines %v, want exactly the one active target", targetLines)
	}
	l := targetLines[0]
	for _, frag := range []string{"target_mips", "jobs=1", "insts=120", "app=80", "sfi=30", "sched=10", "sandbox_pct=25.00"} {
		if !strings.Contains(l, frag) {
			t.Errorf("target line %q missing %q", l, frag)
		}
	}
}

func TestSnapshotJSONFieldNames(t *testing.T) {
	var m Metrics
	m.Add(JobsRun, 1)
	m.AddRun(target.SPARC, target.Result{Insts: 5}, time.Millisecond)
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"jobs_submitted", "jobs_run", "cache_hits", "cache_misses",
		"cache_disk_hits", "cache_disk_writes", "cache_disk_quarantines",
		"stages", "targets",
	} {
		if _, ok := got[k]; !ok {
			t.Errorf("JSON missing field %q: %s", k, raw)
		}
	}
	stages, ok := got["stages"].(map[string]any)
	if !ok || len(stages) != len(StageNames) {
		t.Fatalf("stages = %v, want all of %v", got["stages"], StageNames)
	}
	targets, ok := got["targets"].([]any)
	if !ok || len(targets) != 4 {
		t.Fatalf("targets = %v, want 4 entries", got["targets"])
	}
	t0, _ := targets[0].(map[string]any)
	for _, k := range []string{"target", "jobs", "insts", "app_insts", "sandbox_pct", "sandbox_insts", "sched_insts", "counts", "run"} {
		if _, ok := t0[k]; !ok {
			t.Errorf("target JSON missing field %q: %v", k, t0)
		}
	}
}

// The counters are safe for concurrent update with snapshots racing
// them — the serving hot path does exactly this.
func TestConcurrentUpdates(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(JobsSubmitted, 1)
				m.Add(QueueDepth, 1)
				m.Observe(StageRun, time.Millisecond)
				m.AddRun(target.X86, target.Result{Insts: 3}, time.Millisecond)
				_ = m.Snapshot()
				m.Add(QueueDepth, -1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.JobsSubmitted != 8000 || s.QueueDepth != 0 {
		t.Fatalf("final snapshot %+v", s)
	}
	if s.Stages["run"].Count != 8000 {
		t.Fatalf("run histogram count %d, want 8000", s.Stages["run"].Count)
	}
	var x86 TargetSnapshot
	for _, ts := range s.Targets {
		if ts.Target == "x86" {
			x86 = ts
		}
	}
	if x86.Jobs != 8000 || x86.Run.Count != 8000 {
		t.Fatalf("x86 target snapshot %+v", x86)
	}
}

// The cluster section: absent (and JSON-omitted) on single-node
// snapshots, rendered with per-peer counters in Text and as labelled
// Prometheus families when present.
func TestClusterSection(t *testing.T) {
	var m Metrics
	solo := m.Snapshot()
	blob, err := json.Marshal(solo)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "cluster") || strings.Contains(string(blob), "cache_peer_hits") {
		t.Errorf("single-node snapshot leaks cluster fields: %s", blob)
	}
	if strings.Contains(solo.Text(), "cluster_") {
		t.Errorf("single-node text leaks cluster lines:\n%s", solo.Text())
	}

	s := m.Snapshot()
	s.CachePeerHits = 3
	s.CachePeerQuarantines = 1
	s.Cluster = &ClusterSnapshot{
		Self:      "http://a:1",
		Members:   []string{"http://a:1", "http://b:2", "http://c:3"},
		Failovers: 2,
		Peers: []PeerStats{
			{Peer: "http://b:2", Hits: 3, Quarantines: 1, Errors: 0},
			{Peer: "http://c:3", Hits: 0, Quarantines: 0, Errors: 2},
		},
	}
	text := s.Text()
	for _, want := range []string{
		"cache_peer_hits    3",
		"cluster_failovers  2",
		"cluster_members    3",
		"cluster_peer http://b:2     hits=3 quarantines=1 errors=0 staleness_ms=0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}
	prom := s.Prom()
	for _, want := range []string{
		"# TYPE omni_cluster_peer_hits_total counter",
		`omni_cluster_peer_hits_total{peer="http://b:2"} 3`,
		`omni_cluster_peer_quarantines_total{peer="http://b:2"} 1`,
		`omni_cluster_peer_errors_total{peer="http://c:3"} 2`,
		"omni_cluster_failovers_total 2",
		"omni_cache_peer_hits_total 3",
		"omni_cache_peer_quarantines_total 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom missing %q", want)
		}
	}
}

// MergeSnapshots is the fleet aggregation primitive: counters sum,
// stage histograms add bucket-wise with quantiles recomputed (never
// averaged), targets merge by name, and the cluster sections fold
// per peer address with reason splits merged key-wise and staleness
// keeping the freshest contact.
func TestMergeSnapshots(t *testing.T) {
	stage := func(d time.Duration, n int) StageSnapshot {
		var h trace.Histogram
		for i := 0; i < n; i++ {
			h.Observe(d)
		}
		hs := h.Snapshot()
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		return StageSnapshot{Count: hs.Count, P50Us: us(hs.P50()), Hist: hs}
	}
	a := Snapshot{
		JobsRun: 3, Translations: 2, CachePeerHits: 1, QueueDepth: 2,
		Stages: map[string]StageSnapshot{
			"translate": stage(time.Millisecond, 2),
			"verify":    stage(100*time.Microsecond, 1),
		},
		Cluster: &ClusterSnapshot{
			Self: "http://a:1", Members: []string{"http://a:1", "http://b:1"}, Failovers: 1,
			Peers: []PeerStats{{
				Peer: "http://b:1", Hits: 4, Quarantines: 2,
				QuarantinesByReason: map[string]uint64{"hash": 1, "frame": 1},
				StalenessMs:         250,
			}},
		},
	}
	b := Snapshot{
		JobsRun: 5, Translations: 1, QueueDepth: 1,
		Stages: map[string]StageSnapshot{
			"translate": stage(4*time.Millisecond, 3),
			"decode":    stage(time.Microsecond, 2),
		},
		Cluster: &ClusterSnapshot{
			Self: "http://b:1", Members: []string{"http://b:1", "http://c:1"}, Failovers: 2,
			Peers: []PeerStats{
				{Peer: "http://b:1", Hits: 1, Quarantines: 1,
					QuarantinesByReason: map[string]uint64{"hash": 1}, StalenessMs: 10},
				{Peer: "http://c:1", Errors: 3, StalenessMs: -1},
			},
		},
	}

	m := MergeSnapshots(a, b)
	if m.JobsRun != 8 || m.Translations != 3 || m.CachePeerHits != 1 || m.QueueDepth != 3 {
		t.Fatalf("counters: %+v", m)
	}
	// Stage union: shared stages merge, one-sided stages survive.
	tr2 := m.Stages["translate"]
	if tr2.Count != 5 || tr2.Hist.Count != 5 {
		t.Fatalf("translate merged count %d/%d, want 5", tr2.Count, tr2.Hist.Count)
	}
	// The merged p95 must come from the merged buckets: ranks 3–5 of
	// the five samples sit in the 4ms bucket, so p95 lands there — not
	// at any average of the two locals' quantiles.
	if p95 := time.Duration(tr2.P95Us*1e3) * time.Nanosecond; p95 <= 2*time.Millisecond {
		t.Errorf("merged p95 %v looks averaged, want in the 4ms bucket", p95)
	}
	if m.Stages["verify"].Count != 1 || m.Stages["decode"].Count != 2 {
		t.Errorf("one-sided stages lost: %+v", m.Stages)
	}

	c := m.Cluster
	if c == nil {
		t.Fatal("cluster section dropped")
	}
	if c.Self != "http://a:1" || c.Failovers != 3 {
		t.Errorf("cluster self/failovers: %+v", c)
	}
	if len(c.Members) != 3 {
		t.Errorf("members union: %v", c.Members)
	}
	if len(c.Peers) != 2 {
		t.Fatalf("peers: %+v", c.Peers)
	}
	pb := c.Peers[0] // sorted by address: b before c
	if pb.Peer != "http://b:1" || pb.Hits != 5 || pb.Quarantines != 3 {
		t.Errorf("peer b fold: %+v", pb)
	}
	if pb.QuarantinesByReason["hash"] != 2 || pb.QuarantinesByReason["frame"] != 1 {
		t.Errorf("reason split fold: %+v", pb.QuarantinesByReason)
	}
	if pb.StalenessMs != 10 {
		t.Errorf("staleness %d, want the freshest contact 10", pb.StalenessMs)
	}
	if c.Peers[1].StalenessMs != -1 {
		t.Errorf("never-contacted peer staleness %d, want -1", c.Peers[1].StalenessMs)
	}

	// The inputs were not mutated by the fold.
	if a.Cluster.Peers[0].Hits != 4 || a.Cluster.Peers[0].QuarantinesByReason["hash"] != 1 {
		t.Error("MergeSnapshots mutated an input")
	}
	if len(a.Stages) != 2 || a.Stages["translate"].Count != 2 {
		t.Error("MergeSnapshots mutated input stages")
	}

	// Merging with a zero snapshot is the identity on every counter.
	id := MergeSnapshots(a, Snapshot{})
	if id.JobsRun != a.JobsRun || id.Stages["translate"].Count != 2 || id.Cluster.Failovers != 1 {
		t.Errorf("identity merge changed values: %+v", id)
	}
}
