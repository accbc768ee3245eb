// Cluster-mode load generation: omniload can drive a set of
// omniserved cluster members through the hash-routing failover client
// instead of a single node. The server-side interval then comes from
// summing every member's metrics snapshot before and after the run —
// cluster throughput is the fleet's, not one node's.
package load

import (
	"fmt"

	"omniware/internal/cluster"
	"omniware/internal/netserve"
	"omniware/internal/serve/metrics"
)

// client is the slice of a client the generator needs; netserve.Client
// and the cluster-aware cluster.Client both have it.
type client interface {
	Upload(blob []byte) (*netserve.UploadResponse, error)
	ExecRetry(r netserve.ExecRequest, pol netserve.RetryPolicy) (*netserve.ExecResponse, error)
}

// FleetMetrics snapshots every member and merges (counters sum,
// histogram buckets add, quantiles recomputed from merged buckets, the
// cluster sections fold peer-wise) — the fleet-wide view the
// cluster-mode server interval (and omnictl cluster metrics) uses. The
// bucket arithmetic lives in metrics.MergeSnapshots, the same fold the
// /v1/cluster/metrics fan-out uses, so the two views can never
// disagree.
func FleetMetrics(addrs []string) (*metrics.Snapshot, error) {
	var sum metrics.Snapshot
	for i, a := range addrs {
		s, err := (&netserve.Client{Base: a}).Metrics()
		if err != nil {
			return nil, fmt.Errorf("load: metrics from %s: %w", a, err)
		}
		if i == 0 {
			sum = *s
		} else {
			sum = metrics.MergeSnapshots(sum, *s)
		}
	}
	return &sum, nil
}

// BootedCluster is an in-process cluster for hermetic cluster runs,
// the counterpart of Boot for -cluster.
type BootedCluster struct {
	Addrs []string
	local *cluster.Local
}

// BootCluster starts an n-node in-process cluster with the rate
// limiter opened wide (the generator is the only client; the
// interesting backpressure is the admission queue's).
func BootCluster(n int, opts BootOpts) (*BootedCluster, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	l, err := cluster.BootLocal(cluster.BootConfig{
		Nodes:    n,
		Workers:  opts.Workers,
		QueueCap: opts.QueueCap,
		Rate:     1e9,
		Burst:    1e9,
		Logf:     opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &BootedCluster{Addrs: l.Addrs(), local: l}, nil
}

// Close tears every node down.
func (b *BootedCluster) Close() { b.local.Close() }
