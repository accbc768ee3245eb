package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"omniware/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current renderers")

// fixtureStage is a stage summary over the given observations, with
// the quantiles the live path would have computed.
func fixtureStage(durs ...time.Duration) StageSnapshot {
	var h trace.Histogram
	for _, d := range durs {
		h.Observe(d)
	}
	hs := h.Snapshot()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return StageSnapshot{Count: hs.Count, P50Us: us(hs.P50()), P95Us: us(hs.P95()), P99Us: us(hs.P99()), Hist: hs}
}

// fixtureSnapshot is a hand-built snapshot with every section
// populated (cluster included) and every scalar distinct, so a
// renderer that swaps, drops or reorders a field changes a golden
// file. n shifts the values: fixtureSnapshot(0) and fixtureSnapshot(1)
// are the two inputs of the merge golden.
func fixtureSnapshot(n uint64) Snapshot {
	ms := time.Millisecond
	k := time.Duration(n + 1)
	return Snapshot{
		JobsSubmitted:   101 + n,
		JobsRun:         97 + n,
		JobsFailed:      4 + n,
		FaultsContained: 3 + n,
		Timeouts:        1 + n,
		Translations:    17 + n,
		SimInsts:        1234567 + n,
		SimCycles:       2345678 + n,
		QueueDepth:      5 + int64(n),

		CacheHits:      71 + n,
		CacheCoalesced: 6 + n,
		CacheMisses:    19 + n,
		CacheEvictions: 2 + n,
		CacheRejected:  8 + n,
		CacheEntries:   13,
		CacheBytes:     65536 + int64(n),

		CacheDiskHits:        9 + n,
		CacheDiskWrites:      11 + n,
		CacheDiskQuarantines: 12 + n,

		CachePeerHits:        15 + n,
		CachePeerQuarantines: 16 + n,

		AuditPass:    25 + n,
		AuditWarns:   map[string]uint64{"stack": 26 + n, "cost": 27 + n, "capability": 28 + n, "recursion": 29 + n},
		AuditRejects: map[string]uint64{"stack": 30 + n, "cost": 31 + n, "capability": 32 + n, "recursion": 33 + n},

		Stages: map[string]StageSnapshot{
			"decode":     fixtureStage(40*time.Microsecond*k, 55*time.Microsecond),
			"audit":      fixtureStage(300*time.Microsecond*k, 2*ms),
			"queue_wait": fixtureStage(10*time.Microsecond, 150*time.Microsecond*k, 9*ms),
			"translate":  fixtureStage(ms*k, 4*ms, 4*ms),
			"peer_fetch": fixtureStage(700 * time.Microsecond * k),
			"verify":     fixtureStage(90*time.Microsecond, 110*time.Microsecond*k),
			"run":        fixtureStage(3*ms, 30*ms*k, 3*time.Second, time.Hour),
		},
		Targets: []TargetSnapshot{
			{
				Target: "mips", Jobs: 40 + n, Insts: 1000 + n, AppInsts: 800 + n, SandboxPct: 100 * float64(150) / float64(1000+n),
				Sandbox: 150, Sched: 50,
				Counts: map[string]uint64{"base": 800 + n, "sfi": 150, "bnop": 50, "addr": 0},
				Run:    fixtureStage(3*ms, 30*ms*k),
			},
			{
				Target: "sparc", Jobs: 30 + n, Insts: 2000, AppInsts: 1500, SandboxPct: 20,
				Sandbox: 400, Sched: 100,
				Counts: map[string]uint64{"base": 1500, "sfi": 400, "bnop": 100},
				Run:    fixtureStage(5 * ms * k),
			},
			{Target: "ppc", Counts: map[string]uint64{}, Run: fixtureStage()},
			{
				Target: "x86", Jobs: 27, Insts: 300, AppInsts: 290, SandboxPct: 100 * float64(10) / 300,
				Sandbox: 10,
				Counts:  map[string]uint64{"base": 290, "sfi": 10},
				Run:     fixtureStage(time.Second),
			},
		},
		Cluster: &ClusterSnapshot{
			Self:      "http://10.0.0.1:8080",
			Members:   []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"},
			Failovers: 7 + n,
			Peers: []PeerStats{
				{
					Peer: "http://10.0.0.2:8080", Hits: 15 + n, Quarantines: 5, Errors: 1,
					QuarantinesByReason: map[string]uint64{"frame": 1, "key-mismatch": 0, "hash": 2 + n, "verifier-refusal": 1},
					StalenessMs:         250 - int64(100*n),
				},
				{Peer: "http://10.0.0.3:8080", Errors: 2 + n, StalenessMs: -1},
			},
		},
	}
}

// golden compares got with testdata/name, or rewrites the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (run with -update to accept):\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// snapshotJSON encodes the way GET /v1/metrics does, indented so a
// golden diff is readable; key order is the encoder's either way.
func snapshotJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The three renderings of one snapshot, and the fleet merge of two,
// are pinned byte for byte: the files were generated by the
// hand-written renderers this package had before its metric table.
func TestGoldenRenderings(t *testing.T) {
	s := fixtureSnapshot(0)
	golden(t, "snapshot.json", snapshotJSON(t, s))
	golden(t, "snapshot.prom", []byte(s.Prom()))
	golden(t, "snapshot.txt", []byte(s.Text()))

	// A single-node snapshot: no cluster section, no peer-fill traffic.
	solo := fixtureSnapshot(0)
	solo.Cluster = nil
	solo.CachePeerHits, solo.CachePeerQuarantines = 0, 0
	golden(t, "solo.json", snapshotJSON(t, solo))
	golden(t, "solo.prom", []byte(solo.Prom()))
	golden(t, "solo.txt", []byte(solo.Text()))
}

func TestGoldenMerge(t *testing.T) {
	b := fixtureSnapshot(1)
	// The second node knows a peer the first does not, lacks one stage
	// and one target, and reports its members in another order.
	b.Cluster.Self = "http://10.0.0.2:8080"
	b.Cluster.Members = []string{"http://10.0.0.4:8080", "http://10.0.0.2:8080"}
	b.Cluster.Peers[1].Peer = "http://10.0.0.4:8080"
	delete(b.Stages, "peer_fetch")
	b.Targets = b.Targets[:3]
	m := MergeSnapshots(fixtureSnapshot(0), b)
	golden(t, "merged.json", snapshotJSON(t, m))
	golden(t, "merged.prom", []byte(m.Prom()))
	golden(t, "merged.txt", []byte(m.Text()))
}
