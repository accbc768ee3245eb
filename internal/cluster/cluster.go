package cluster

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/mcache"
	"omniware/internal/netserve"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/wire"
)

// DefaultPeerTimeout bounds every peer-to-peer HTTP call when
// Config.HTTP is nil. Peer fetches run inside the cache's singleflight
// on the exec path, so a hung (not merely dead) peer must fail fast —
// an unbounded call there would wedge the translating worker and every
// coalesced waiter behind it.
const DefaultPeerTimeout = 5 * time.Second

// Config describes one node's view of the cluster. Self must appear
// in Members; every node must be configured with the same Members
// list (membership is static — there is no gossip or discovery).
type Config struct {
	Self    string   // this node's advertised base URL
	Members []string // all nodes' base URLs, including Self
	// Secret is the shared peer-auth secret (required): every member
	// must be configured with the same value, and every /v1/peer/*
	// request carries it. Without it any client reachable on the
	// listener could push translations or scrape peer state.
	Secret string
	// Fanout is how many owners each module hash has on the ring
	// (default 2): the nodes an exec routes to, a miss peer-fills
	// from, and replication pushes to.
	Fanout int
	// HotK caps how many of this node's hottest cache entries each
	// replication round offers to their owners (default 8).
	HotK int
	// ReplicateEvery is the replication period (default 2s).
	// Negative disables the background replicator; ReplicateOnce
	// still works.
	ReplicateEvery time.Duration
	HTTP           *http.Client // peer HTTP client (default: DefaultPeerTimeout-bounded)
	Logf           func(format string, args ...any)
}

// peerCounters is one remote member's attribution, updated lock-free
// from the serving hot path. reasons is built once at New with every
// quarantine reason pre-registered, so updates are pure atomic adds
// (no map writes) and the metrics exposition always shows the full
// label set, zeros included.
type peerCounters struct {
	hits        atomic.Uint64
	quarantines atomic.Uint64
	errors      atomic.Uint64
	pushes      atomic.Uint64
	reasons     map[string]*atomic.Uint64
	// lastContact is the unix-nano time this peer last answered
	// anything — including a clean miss; 0 means never.
	lastContact atomic.Int64
}

func newPeerCounters() *peerCounters {
	pc := &peerCounters{reasons: map[string]*atomic.Uint64{}}
	for _, r := range mcache.QuarantineReasons {
		pc.reasons[r] = &atomic.Uint64{}
	}
	return pc
}

// touch records that the peer answered (success or clean miss).
func (pc *peerCounters) touch() {
	if pc != nil {
		pc.lastContact.Store(time.Now().UnixNano())
	}
}

// quarantine counts one refusal under its reason; unknown reasons
// still count in the total so nothing is lost off the closed set.
func (pc *peerCounters) quarantine(reason string) {
	if pc == nil {
		return
	}
	pc.quarantines.Add(1)
	if ctr, ok := pc.reasons[reason]; ok {
		ctr.Add(1)
	}
}

// Peers is a node's cluster engine: it implements mcache.PeerSource
// (the translation peer-fill path) and netserve.PeerHooks (the module
// fetch path), and runs the hot-entry replicator. One Peers is shared
// by the node's cache and its HTTP handler.
type Peers struct {
	cfg   Config
	ring  *Ring
	stats map[string]*peerCounters // fixed key set: every member but self

	failovers atomic.Uint64

	mu    sync.Mutex
	cache *mcache.Cache // bound by Start
	// pushed remembers when each (key, peer) pair was last replicated
	// so a hot entry is offered to an owner once per pushedTTL, not
	// once per tick. Entries expire (a peer that restarted and lost
	// its cache gets re-offered) and the map is capped at pushedMax so
	// a long-running node's memory stays bounded.
	pushed map[string]time.Time

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New validates cfg and builds the node's cluster engine. The
// returned Peers is inert until Start binds it to the node's cache.
func New(cfg Config) (*Peers, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.Secret == "" {
		return nil, errors.New("cluster: Config.Secret is required (the shared peer-auth secret; every member must use the same value)")
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: DefaultPeerTimeout}
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.HotK <= 0 {
		cfg.HotK = 8
	}
	if cfg.ReplicateEvery == 0 {
		cfg.ReplicateEvery = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	ring := NewRing(cfg.Members, DefaultVnodes)
	self := false
	stats := map[string]*peerCounters{}
	for _, m := range ring.Members() {
		if m == cfg.Self {
			self = true
		} else {
			stats[m] = newPeerCounters()
		}
	}
	if !self {
		return nil, fmt.Errorf("cluster: Self %q not in Members %v", cfg.Self, ring.Members())
	}
	return &Peers{
		cfg:    cfg,
		ring:   ring,
		stats:  stats,
		pushed: map[string]time.Time{},
		stop:   make(chan struct{}),
	}, nil
}

// Ring exposes the node's ring (clients and CLIs build their own; the
// lists agree, so the rings agree).
func (p *Peers) Ring() *Ring { return p.ring }

// Self returns this node's advertised address.
func (p *Peers) Self() string { return p.cfg.Self }

// Members returns the full static membership, including self — the
// set the fleet aggregation endpoint fans out over.
func (p *Peers) Members() []string { return p.ring.Members() }

// Owners returns the failover-ordered owner set for a module hash.
func (p *Peers) Owners(modHash string) []string {
	return p.ring.Owners(modHash, p.cfg.Fanout)
}

func (p *Peers) client(peer string) *netserve.Client {
	return &netserve.Client{Base: peer, HTTP: p.cfg.HTTP, PeerAuth: p.cfg.Secret}
}

// isMiss reports whether err is a clean 404 — the peer is healthy but
// does not have the artifact. Anything else is a peer fault.
func isMiss(err error) bool {
	var se *netserve.StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// Fetch implements mcache.PeerSource: on a local memory+disk miss,
// probe the owning peers for an existing translation. Every candidate
// returned here is still untrusted — the cache re-verifies before
// admission and reports the outcome through Admitted/Quarantined.
//
// A frame that fails to decode, binds a different key, or carries an
// undecodable program never reaches the cache; it is quarantined here
// with the same per-peer attribution.
func (p *Peers) Fetch(key string, org mcache.PeerOrigin) []mcache.PeerCandidate {
	modHash, err := mcache.KeyModuleHash(key)
	if err != nil {
		return nil
	}
	mach, _, _, err := mcache.ParseKey(key)
	if err != nil {
		return nil
	}
	var cands []mcache.PeerCandidate
	for _, peer := range p.Owners(modHash) {
		if peer == p.cfg.Self {
			continue
		}
		st := p.stats[peer]
		frame, remote, err := p.client(peer).PeerTranslation(modHash, mach.Name, key, p.cfg.Self, org)
		if err != nil {
			if !isMiss(err) {
				st.errors.Add(1)
				p.failovers.Add(1)
				p.cfg.Logf("cluster: peer %s translation fetch failed: %v", peer, err)
				continue
			}
			st.touch() // a clean miss is still a live peer
			continue
		}
		st.touch()
		gotKey, payload, err := wire.DecodePeerFrame(frame)
		reason := mcache.QuarantineFrame
		if err == nil && gotKey != key {
			reason = mcache.QuarantineKeyMismatch
			err = fmt.Errorf("frame bound to key %q, asked for %q", gotKey, key)
		}
		var prog *target.Program
		if err == nil {
			prog, err = wire.DecodeProgram(payload)
			if err != nil {
				reason = mcache.QuarantineFrame
			}
		}
		if err != nil {
			st.quarantine(reason)
			p.cfg.Logf("cluster: peer %s served a bad translation frame (quarantined, %s): %v", peer, reason, err)
			continue
		}
		cands = append(cands, mcache.PeerCandidate{Prog: prog, Peer: peer, Remote: remote})
	}
	return cands
}

// Admitted implements mcache.PeerSource: a peer candidate passed the
// local verifier and was admitted.
func (p *Peers) Admitted(key, peer string) {
	if st := p.stats[peer]; st != nil {
		st.hits.Add(1)
	}
}

// Quarantined implements mcache.PeerSource: a peer candidate failed
// the local admission gate (verifier refusal or spot-check mismatch);
// reason is one of the mcache.Quarantine* constants.
func (p *Peers) Quarantined(key, peer, reason string, err error) {
	p.stats[peer].quarantine(reason)
	p.cfg.Logf("cluster: translation from peer %s for %s quarantined (%s): %v", peer, key, reason, err)
}

// FetchModule implements netserve.PeerHooks: pull a module's
// canonical bytes from whichever member has it, owners first. The
// content address is checked here (and again by the registering
// handler); a peer serving different bytes under the name is
// quarantined and the next member is tried. The serving peer's span
// subtree, address, and advertised audit digest come back with the
// blob — the digest is advisory only; the registering handler
// re-derives the audit and compares.
func (p *Peers) FetchModule(hash string, org mcache.PeerOrigin) ([]byte, *trace.Span, string, string, bool) {
	tried := map[string]bool{p.cfg.Self: true}
	order := append(p.Owners(hash), p.ring.Members()...)
	for _, peer := range order {
		if tried[peer] {
			continue
		}
		tried[peer] = true
		st := p.stats[peer]
		blob, remote, digest, err := p.client(peer).PeerModule(hash, p.cfg.Self, org)
		if err != nil {
			if !isMiss(err) {
				st.errors.Add(1)
				p.failovers.Add(1)
				p.cfg.Logf("cluster: peer %s module fetch failed: %v", peer, err)
				continue
			}
			st.touch() // a clean miss is still a live peer
			continue
		}
		st.touch()
		if got := wire.Hash(blob); got != hash {
			st.quarantine(mcache.QuarantineHash)
			p.cfg.Logf("cluster: peer %s served module %s under name %s (quarantined, %s)", peer, got, hash, mcache.QuarantineHash)
			continue
		}
		return blob, remote, peer, digest, true
	}
	return nil, nil, "", "", false
}

// Start binds the engine to the node's cache and, unless disabled,
// launches the background replicator.
func (p *Peers) Start(c *mcache.Cache) {
	p.mu.Lock()
	p.cache = c
	p.mu.Unlock()
	if p.cfg.ReplicateEvery < 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.ReplicateEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.ReplicateOnce()
			}
		}
	}()
}

// Close stops the replicator. Safe to call more than once.
func (p *Peers) Close() {
	p.stopped.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// ReplicateOnce pushes this node's hottest translations to their ring
// owners (once per (entry, owner) pair per pushedTTL; refused or
// failed pushes are retried on a later round). Returns the number of
// successful pushes.
// The receiver re-verifies before admission, so replication spreads
// warmth, never trust.
func (p *Peers) ReplicateOnce() int {
	p.mu.Lock()
	c := p.cache
	p.mu.Unlock()
	if c == nil {
		return 0
	}
	pushes := 0
	for _, hot := range c.Hot(p.cfg.HotK) {
		modHash, err := mcache.KeyModuleHash(hot.Key)
		if err != nil {
			continue
		}
		mach, _, _, err := mcache.ParseKey(hot.Key)
		if err != nil {
			continue
		}
		var payload []byte
		for _, peer := range p.Owners(modHash) {
			if peer == p.cfg.Self || p.alreadyPushed(hot.Key, peer) {
				continue
			}
			if payload == nil {
				prog, ok := c.Peek(hot.Key)
				if !ok {
					break // evicted since Hot
				}
				if payload, err = wire.EncodeProgram(prog); err != nil {
					break
				}
			}
			st := p.stats[peer]
			if err := p.client(peer).PushPeerTranslation(modHash, mach.Name, hot.Key, payload, p.cfg.Self); err != nil {
				st.errors.Add(1)
				p.cfg.Logf("cluster: replication push to %s failed: %v", peer, err)
				continue
			}
			st.pushes.Add(1)
			p.markPushed(hot.Key, peer)
			pushes++
		}
	}
	return pushes
}

// pushedTTL is how long a successful push suppresses re-offering the
// same entry to the same owner; after it a hot entry is pushed again,
// which revives owners that restarted with a cold cache (the receiver
// acknowledges pushes it already holds without re-verifying).
const pushedTTL = 5 * time.Minute

// pushedMax caps the suppression map. Far above HotK × members for any
// sane config; hitting it drops the oldest records, which only costs
// an early re-offer.
const pushedMax = 4096

func (p *Peers) alreadyPushed(key, peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.pushed[key+"\x00"+peer]
	return ok && time.Since(t) < pushedTTL
}

func (p *Peers) markPushed(key, peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	p.pushed[key+"\x00"+peer] = now
	if len(p.pushed) <= pushedMax {
		return
	}
	for k, t := range p.pushed {
		if now.Sub(t) >= pushedTTL {
			delete(p.pushed, k)
		}
	}
	for len(p.pushed) > pushedMax {
		var oldestK string
		var oldestT time.Time
		for k, t := range p.pushed {
			if oldestK == "" || t.Before(oldestT) {
				oldestK, oldestT = k, t
			}
		}
		delete(p.pushed, oldestK)
	}
}

// Snapshot returns the cluster section of the node's metrics: ring
// membership plus per-peer hit/quarantine/error/push attribution.
// Wire it into the serving layer with serve.Server.SetClusterSnapshot.
func (p *Peers) Snapshot() metrics.ClusterSnapshot {
	snap := metrics.ClusterSnapshot{
		Self:      p.cfg.Self,
		Members:   p.ring.Members(),
		Failovers: p.failovers.Load(),
	}
	for _, m := range snap.Members {
		st := p.stats[m]
		if st == nil { // self
			continue
		}
		byReason := make(map[string]uint64, len(st.reasons))
		for r, ctr := range st.reasons {
			byReason[r] = ctr.Load()
		}
		staleness := int64(-1)
		if lc := st.lastContact.Load(); lc != 0 {
			staleness = time.Since(time.Unix(0, lc)).Milliseconds()
		}
		snap.Peers = append(snap.Peers, metrics.PeerStats{
			Peer:                m,
			Hits:                st.hits.Load(),
			Quarantines:         st.quarantines.Load(),
			QuarantinesByReason: byReason,
			Errors:              st.errors.Load(),
			Pushes:              st.pushes.Load(),
			StalenessMs:         staleness,
		})
	}
	return snap
}
