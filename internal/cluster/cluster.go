package cluster

import (
	"errors"
	"fmt"
	"log"
	"net/http"
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
	// listener could make this node translate on demand or scrape peer
	// state.
	Secret string
	// Fanout is how many owners each module hash has on the ring
	// (default 2): the nodes an exec routes to and a miss peer-fills
	// from.
	Fanout int
	HTTP   *http.Client // peer HTTP client (default: DefaultPeerTimeout-bounded)
	Logf   func(format string, args ...any)
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
// fetch path). One Peers is shared by the node's cache and its HTTP
// handler; it owns no goroutine — every peer call runs on the request
// that needs it.
type Peers struct {
	cfg   Config
	ring  *Ring
	stats map[string]*peerCounters // fixed key set: every member but self

	failovers atomic.Uint64
}

// New validates cfg and builds the node's cluster engine.
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
	return &Peers{cfg: cfg, ring: ring, stats: stats}, nil
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
// probe the module's owners in ring order for an existing translation
// and offer each copy to the cache's admission gate (accept), stopping
// at the first one it takes. A cold exec on a non-owner therefore costs
// one owner fill, not one per owner; the next owner is asked only when
// the first misses, fails, or serves a copy the gate refuses.
//
// A frame that fails to decode, binds a different key, or carries an
// undecodable program never reaches the gate; it is quarantined here
// with the same per-peer attribution as a gate refusal.
func (p *Peers) Fetch(key string, org mcache.PeerOrigin, accept func(*target.Program) (string, error)) *mcache.PeerCandidate {
	modHash, err := mcache.KeyModuleHash(key)
	if err != nil {
		return nil
	}
	mach, _, _, err := mcache.ParseKey(key)
	if err != nil {
		return nil
	}
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
		}
		if err == nil {
			reason, err = accept(prog)
		}
		if err != nil {
			st.quarantine(reason)
			p.cfg.Logf("cluster: translation from peer %s for %s quarantined (%s): %v", peer, key, reason, err)
			continue
		}
		st.hits.Add(1)
		return &mcache.PeerCandidate{Prog: prog, Peer: peer, Remote: remote}
	}
	return nil
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

// Snapshot returns the cluster section of the node's metrics: ring
// membership plus per-peer hit/quarantine/error attribution.
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
			StalenessMs:         staleness,
		})
	}
	return snap
}
