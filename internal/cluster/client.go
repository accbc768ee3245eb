package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"omniware/internal/netserve"
	"omniware/internal/wire"
)

// DefaultClientTimeout bounds each per-node HTTP call when
// ClientConfig.HTTP is nil: generous enough for the longest exec a
// default server allows (60s deadline plus queueing), but finite — a
// hung member must become a failover to the next one, not a caller
// stuck forever.
const DefaultClientTimeout = 2 * time.Minute

// ClientConfig describes a cluster from the outside: the member
// addresses (the same list the nodes were configured with) and the
// routing fanout. Zero values select the node-side defaults so client
// and cluster agree on ownership.
type ClientConfig struct {
	Addrs  []string
	Fanout int                  // owners tried before spilling to the rest (default 2)
	HTTP   *http.Client         // per-node HTTP client (default: DefaultClientTimeout-bounded)
	Retry  netserve.RetryPolicy // per-node shed-retry policy
}

// Client routes requests across a cluster: uploads and execs go to a
// module's ring owners first, and transport failures or shed
// responses fail over to the next member instead of failing the
// caller. It is safe for concurrent use.
type Client struct {
	cfg  ClientConfig
	ring *Ring

	failovers atomic.Uint64
}

// NewClient builds a cluster-aware client over addrs.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no member addresses")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: DefaultClientTimeout}
	}
	return &Client{cfg: cfg, ring: NewRing(cfg.Addrs, DefaultVnodes)}, nil
}

// Ring exposes the client's view of the ring (omnictl cluster ring).
func (c *Client) Ring() *Ring { return c.ring }

// Node returns a plain single-node client for one member.
func (c *Client) Node(addr string) *netserve.Client {
	return &netserve.Client{Base: addr, HTTP: c.cfg.HTTP}
}

// Failovers reports how many times this client abandoned one node for
// the next (dead node, transport error, or persistent shedding). A
// failure with no member left to try is an error, not a failover.
func (c *Client) Failovers() uint64 { return c.failovers.Load() }

// route is the failover order for a module hash: its owners, then
// every other member. Deterministic, so retries are stable.
func (c *Client) route(modHash string) []string {
	order := c.ring.Owners(modHash, c.cfg.Fanout)
	seen := map[string]bool{}
	for _, a := range order {
		seen[a] = true
	}
	for _, a := range c.ring.Members() {
		if !seen[a] {
			order = append(order, a)
		}
	}
	return order
}

// failoverWorthy reports whether err means "try another node": any
// transport error, plus shed/unavailable statuses that survived the
// per-node retry budget. 4xx misuse is the caller's bug on every
// node, so it is returned immediately.
func failoverWorthy(err error) bool {
	var se *netserve.StatusError
	if !errors.As(err, &se) {
		return true // transport-level failure
	}
	return se.Code == http.StatusTooManyRequests ||
		se.Code == http.StatusServiceUnavailable ||
		se.Code/100 == 5
}

// Upload sends a module to its ring owners (each owner gets a copy,
// so single-node loss does not lose the module), failing over past
// dead owners. It succeeds if at least one owner accepted the module.
// A deterministic refusal (4xx misuse — corrupt or oversized module)
// would be the same on every member, so it is returned immediately,
// not retried around the ring or counted as a failover.
func (c *Client) Upload(blob []byte) (*netserve.UploadResponse, error) {
	hash := wire.Hash(blob)
	var out *netserve.UploadResponse
	var lastErr error
	failed := false // the previous member refused; trying another is the failover
	for i, addr := range c.route(hash) {
		isOwner := i < c.cfg.Fanout
		if !isOwner && out != nil {
			break // owners handled; non-owners only matter if all owners failed
		}
		if failed {
			c.failovers.Add(1)
			failed = false
		}
		resp, err := c.Node(addr).Upload(blob)
		if err != nil {
			if !failoverWorthy(err) {
				return nil, err
			}
			lastErr = err
			failed = true
			continue
		}
		if out == nil {
			out = resp
		}
	}
	if out == nil {
		return nil, fmt.Errorf("cluster: upload failed on every member: %w", lastErr)
	}
	return out, nil
}

// Exec routes a job to the module's owners and fails over on node
// death or persistent shedding. In cluster mode a non-owner can still
// serve the job (it peer-fetches the module and peer-fills the
// translation), so the spill list is every member.
func (c *Client) Exec(r netserve.ExecRequest) (*netserve.ExecResponse, error) {
	return c.ExecRetry(r, c.cfg.Retry)
}

// ExecRetry is Exec with a per-call shed-retry policy (the load
// generator threads its shed accounting through the policy's Sleep).
func (c *Client) ExecRetry(r netserve.ExecRequest, pol netserve.RetryPolicy) (*netserve.ExecResponse, error) {
	var lastErr error
	for i, addr := range c.route(r.Module) {
		if i > 0 {
			c.failovers.Add(1) // reached only by abandoning member i-1
		}
		resp, err := c.Node(addr).ExecRetry(r, pol)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !failoverWorthy(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster: exec failed on every member: %w", lastErr)
}
