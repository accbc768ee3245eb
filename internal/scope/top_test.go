package scope

import (
	"testing"
	"time"

	"omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

func topStage(durs ...time.Duration) metrics.StageSnapshot {
	var h trace.Histogram
	for _, d := range durs {
		h.Observe(d)
	}
	hs := h.Snapshot()
	return metrics.StageSnapshot{Count: hs.Count, Hist: hs}
}

// One dashboard frame with and without a previous frame: lifetime
// totals first, then the interval (counters, failovers and stage
// quantiles subtracted; the queue gauge, hit rate, targets and peers
// current). The expected text is what the renderer produced when it
// did its own subtraction.
func TestRenderTopLifetimeAndInterval(t *testing.T) {
	ms := time.Millisecond
	prev := &Fleet{Origin: "http://a:1", Nodes: []NodeReport{{Node: "http://a:1"}}, Fleet: &metrics.Snapshot{
		JobsSubmitted: 10, JobsRun: 8, JobsFailed: 1, QueueDepth: 1, CacheHits: 6, CacheMisses: 2,
		Stages:  map[string]metrics.StageSnapshot{"queue_wait": topStage(ms), "run": topStage(3*ms, 3*ms)},
		Cluster: &metrics.ClusterSnapshot{Self: "http://a:1", Failovers: 1},
	}}
	cur := &Fleet{Origin: "http://a:1", Nodes: []NodeReport{{Node: "http://a:1"}, {Node: "http://b:1", Err: "timeout"}}, Fleet: &metrics.Snapshot{
		JobsSubmitted: 50, JobsRun: 44, JobsFailed: 3, QueueDepth: 3, CacheHits: 40, CacheMisses: 10,
		Stages:  map[string]metrics.StageSnapshot{"queue_wait": topStage(ms), "run": topStage(3*ms, 3*ms, 40*ms, 40*ms, 40*ms), "decode": topStage()},
		Targets: []metrics.TargetSnapshot{{Target: "mips", Jobs: 44, Insts: 1000, SandboxPct: 12.5}, {Target: "x86"}},
		Cluster: &metrics.ClusterSnapshot{Self: "http://a:1", Failovers: 4, Peers: []metrics.PeerStats{
			{Peer: "http://b:1", Hits: 2, Quarantines: 1, QuarantinesByReason: map[string]uint64{"hash": 1, "frame": 0}, StalenessMs: 1500},
		}},
	}}

	const lifetime = `omniscope  origin=http://a:1  nodes=1 up / 1 down  window=lifetime
  DOWN http://b:1: timeout
jobs submitted=50 run=44 failed=3  queue=3  failovers=4  cache_hit_rate=0.80

stage           count        p50        p95        p99
queue_wait          1     1.02ms     1.02ms     1.02ms
run                 5      4.1ms    54.61ms    54.61ms

target         jobs          insts   sandbox%
mips             44           1000     12.50%

peer (fleet-merged)            hits   quar   errs  pushes  staleness
http://b:1                        2      1      0       0       1.5s
                             quarantines: hash=1
`
	const interval = `omniscope  origin=http://a:1  nodes=1 up / 1 down  window=last 2s
  DOWN http://b:1: timeout
jobs submitted=40 run=36 failed=2  jobs/s=19.0  queue=3  failovers=3  cache_hit_rate=0.80

stage           count        p50        p95        p99
run                 3    43.69ms    54.61ms    54.61ms

target         jobs          insts   sandbox%
mips             44           1000     12.50%

peer (fleet-merged)            hits   quar   errs  pushes  staleness
http://b:1                        2      1      0       0       1.5s
                             quarantines: hash=1
`
	if got := RenderTop(cur, nil, 0); got != lifetime {
		t.Errorf("lifetime frame:\n%s\nwant:\n%s", got, lifetime)
	}
	if got := RenderTop(cur, prev, 2*time.Second); got != interval {
		t.Errorf("interval frame:\n%s\nwant:\n%s", got, interval)
	}
}
