package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"

	"omniware/internal/mcache"
	"omniware/internal/netserve"
	"omniware/internal/serve"
)

// BootConfig sizes an in-process cluster (BootLocal): N full
// omniserved stacks — cache, worker pool, HTTP layer, cluster engine
// — on loopback listeners. This is what `omniload -cluster` and the
// cluster tests run against; the binary daemons wire the same pieces
// together from flags.
type BootConfig struct {
	Nodes    int // member count (default 3)
	Fanout   int
	Workers  int     // per-node worker pool size
	QueueCap int     // per-node admission queue cap (0 = default)
	Rate     float64 // per-client rate limit (0 = netserve default)
	Burst    float64 // per-client burst allowance
	Verify   mcache.VerifyMode
	Logf     func(format string, args ...any)
}

// Node is one member of an in-process cluster.
type Node struct {
	Addr    string
	Server  *serve.Server
	Handler *netserve.Handler
	Peers   *Peers

	httpSrv *http.Server
	lis     net.Listener
}

// Close shuts the node down: HTTP listener, then the worker pool.
// Idempotent enough for test cleanup (double Close on the HTTP server
// returns ErrServerClosed, which is ignored).
func (n *Node) Close() {
	_ = n.httpSrv.Close()
	n.Server.Close()
}

// Kill drops the node's listener without any draining or cleanup —
// the closest in-process stand-in for SIGKILL, for failover tests.
// The dead node's goroutines are reaped by Close.
func (n *Node) Kill() {
	_ = n.httpSrv.Close()
}

// Local is a running in-process cluster.
type Local struct {
	Nodes []*Node
}

// Addrs lists the member base URLs in node order.
func (l *Local) Addrs() []string {
	out := make([]string, len(l.Nodes))
	for i, n := range l.Nodes {
		out[i] = n.Addr
	}
	return out
}

// Close shuts every node down.
func (l *Local) Close() {
	for _, n := range l.Nodes {
		n.Close()
	}
}

// Client builds a cluster-aware client over the cluster's members
// with the same fanout the nodes use.
func (l *Local) Client(fanout int) *Client {
	cl, err := NewClient(ClientConfig{Addrs: l.Addrs(), Fanout: fanout})
	if err != nil {
		panic(err) // unreachable: Addrs is non-empty for a booted cluster
	}
	return cl
}

// BootLocal starts an in-process cluster on loopback. Listeners are
// bound first so every node knows the full member list before any
// node is constructed; then each node gets its own cache (with the
// cluster engine as its peer source), worker pool, and HTTP layer. The
// shared peer-auth secret is generated: the members are all in this
// process, so nobody else needs to know it.
func BootLocal(cfg BootConfig) (*Local, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("cluster: generating peer secret: %w", err)
	}
	secret := hex.EncodeToString(b[:])
	liss := make([]net.Listener, 0, cfg.Nodes)
	members := make([]string, 0, cfg.Nodes)
	fail := func(err error) (*Local, error) {
		for _, l := range liss {
			_ = l.Close()
		}
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("cluster: binding node %d: %w", i, err))
		}
		liss = append(liss, lis)
		members = append(members, "http://"+lis.Addr().String())
	}

	l := &Local{}
	for i := 0; i < cfg.Nodes; i++ {
		peers, err := New(Config{
			Self:    members[i],
			Members: members,
			Secret:  secret,
			Fanout:  cfg.Fanout,
			Logf:    cfg.Logf,
		})
		if err != nil {
			l.Close()
			return fail(err)
		}
		cache := mcache.NewWith(mcache.Config{
			Verify: cfg.Verify,
			Peer:   peers,
			Logf:   cfg.Logf,
		})
		srv := serve.New(serve.Config{Workers: cfg.Workers, QueueCap: cfg.QueueCap, Cache: cache})
		srv.SetClusterSnapshot(peers.Snapshot)
		h, err := netserve.New(netserve.Config{
			Server:   srv,
			Peer:     peers,
			PeerAuth: secret,
			Rate:     cfg.Rate,
			Burst:    cfg.Burst,
			Logf:     cfg.Logf,
		})
		if err != nil {
			srv.Close()
			l.Close()
			return fail(err)
		}
		node := &Node{
			Addr:    members[i],
			Server:  srv,
			Handler: h,
			Peers:   peers,
			httpSrv: &http.Server{Handler: h},
			lis:     liss[i],
		}
		go func() { _ = node.httpSrv.Serve(node.lis) }()
		l.Nodes = append(l.Nodes, node)
	}
	return l, nil
}
