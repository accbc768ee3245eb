// Peer-fill support: the cluster layer plugs in as a PeerSource, and
// the cache treats whatever it offers exactly like the disk tier —
// candidate bytes that must pass the SFI admission gate before they
// become visible. The cache never trusts a peer: a candidate that the
// verifier refuses is counted, reported back for per-peer attribution,
// and the source moves on to the next owner (or the lookup falls
// through to local translation). The functions in this file are also
// what a node uses to *serve* its peers (Peek) and to install a
// translation made elsewhere (AdmitKeyed) — both keyed by the same
// explicit, versioned cache key the persistent tier uses, so one
// translation has one name across memory, disk, and the wire.

package mcache

import (
	"fmt"
	"reflect"
	"strings"

	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

// PeerCandidate is one translation offered by a peer: structurally
// decoded (the wire layer accepted its framing) but UNVERIFIED — the
// cache runs the SFI admission gate on it before anything else.
type PeerCandidate struct {
	Prog *target.Program
	Peer string // peer identity, for attribution
	// Remote, when the peer returned one, is the serving node's own
	// span subtree for this probe (what the remote did: cache tier hit,
	// on-demand translation, verification). The cache grafts it under
	// the local peer_fetch span so the origin's trace is the stitched
	// cross-node tree.
	Remote *trace.Span
}

// PeerOrigin is the originating request context a peer probe carries
// across the node boundary: the trace (job) ID the probe works for and
// the origin's HTTP request ID. The remote side records its own span
// tree under the trace parent and echoes the request ID, so a remote
// failure names a request that actually exists — on the origin.
type PeerOrigin struct {
	TraceID   string
	RequestID string
}

// Quarantine reasons: the closed label set for per-reason quarantine
// attribution, shared by the cache's admission verdicts, the cluster
// engine's transport-level verdicts, and the metrics exposition (which
// pre-registers every reason so a zero series is visible, not absent).
const (
	QuarantineFrame          = "frame"            // peer frame failed to decode
	QuarantineKeyMismatch    = "key-mismatch"     // frame bound to a different cache key
	QuarantineHash           = "hash"             // module bytes hash to a different content address
	QuarantineVerifier       = "verifier-refusal" // SFI admission gate refused the program
	QuarantineCorrespondence = "correspondence"   // retranslation equality (spot check) failed
)

// QuarantineReasons lists every reason above, in exposition order.
var QuarantineReasons = []string{
	QuarantineFrame, QuarantineKeyMismatch, QuarantineHash,
	QuarantineVerifier, QuarantineCorrespondence,
}

// PeerSource is the cluster hook: on a memory+disk miss the cache asks
// it for a translation of key and passes its admission gate as accept.
// The source offers its peers' copies to accept one at a time, in its
// own probe order, and returns the first one accept takes — nil when
// none did, which is a normal miss. accept refuses a copy with one of
// the Quarantine* reasons and the gate's error, so the source can keep
// per-peer counters; transport errors are the source's business (they
// look like a miss here). Implementations must be safe for concurrent
// use.
type PeerSource interface {
	Fetch(key string, org PeerOrigin, accept func(*target.Program) (reason string, err error)) *PeerCandidate
}

// loadFromPeer probes the peer source after a memory and disk miss.
// Each copy the source offers must pass the admission gate (and, if
// due, the integrity spot check); the first that does wins and the
// probe stops there. Every refused copy is quarantined and counted —
// the lookup degrades to a translation, never to serving unverified
// code.
func (c *Cache) loadFromPeer(sp *trace.Span, k string, retranslate retranslateFn, mach *target.Machine, si translate.SegInfo) (*target.Program, bool) {
	psp := sp.Child("peer_fetch")
	defer psp.End()
	org := PeerOrigin{TraceID: psp.TraceID(), RequestID: psp.RequestID()}
	cand := c.peer.Fetch(k, org, func(prog *target.Program) (string, error) {
		if err := c.admit(psp, prog, mach, si); err != nil {
			c.ctr.peerQuarantines.Add(1)
			return QuarantineVerifier, err
		}
		if err := c.spotCheck(psp, prog, retranslate); err != nil {
			c.ctr.peerQuarantines.Add(1)
			return QuarantineCorrespondence, err
		}
		return "", nil
	})
	if cand == nil {
		return nil, false
	}
	c.ctr.peerHits.Add(1)
	psp.Set("peer", cand.Peer)
	psp.AttachRemote(cand.Remote, cand.Peer)
	return cand.Prog, true
}

// retranslateFn re-derives the translation locally for the integrity
// spot check; nil disables the check for that lookup.
type retranslateFn = func() (*target.Program, error)

// spotCheck re-derives the translation locally every Nth peer
// admission and demands instruction-for-instruction equality. The SFI
// gate proves *containment* (the program cannot escape its sandbox);
// the spot check samples *correspondence* (the program is the
// translation of the module it claims to be) — cheap insurance the
// deterministic translator makes possible. Disabled when
// PeerSpotCheckEvery is 0.
func (c *Cache) spotCheck(sp *trace.Span, got *target.Program, retranslate retranslateFn) error {
	if c.spotEvery <= 0 || retranslate == nil {
		return nil
	}
	if c.spotClock.Add(1)%uint64(c.spotEvery) != 0 {
		return nil
	}
	ssp := sp.Child("spot_check")
	defer ssp.End()
	return c.correspond(ssp, got, retranslate)
}

// correspond is the correspondence check itself: retranslate locally
// and demand instruction-for-instruction equality. Run by AdmitKeyed
// whenever it is given a retranslate function, and on sampled peer
// fills (spotCheck).
func (c *Cache) correspond(sp *trace.Span, got *target.Program, retranslate retranslateFn) error {
	c.ctr.peerSpotChecks.Add(1)
	local, err := retranslate()
	if err != nil {
		// The local translator refusing the module while a peer serves
		// a "translation" of it is itself a red flag.
		c.ctr.peerSpotCheckFails.Add(1)
		return fmt.Errorf("mcache: spot check: local translation failed: %w", err)
	}
	if !reflect.DeepEqual(local.Code, got.Code) {
		c.ctr.peerSpotCheckFails.Add(1)
		sp.Set("mismatch", true)
		return fmt.Errorf("mcache: spot check: peer translation differs from local retranslation (%d vs %d insts)",
			len(got.Code), len(local.Code))
	}
	return nil
}

// Peek returns the verified program stored under key, if any, checking
// the memory tier and then the persistent tier, plus the tier that
// satisfied it ("memory" or "disk") — peer-serving handlers annotate
// their remote span with it so the origin's stitched trace shows where
// the bytes actually lived. It is the peer-serving read: no
// translation, no verification (the *receiving* node verifies on
// arrival — these bytes are never executed here), no miss accounting,
// and no recency touch, so a scan by peers cannot distort the local
// LRU.
func (c *Cache) Peek(key string) (*target.Program, string, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok {
		prog := el.Value.(*entry).prog
		sh.mu.Unlock()
		return prog, "memory", true
	}
	sh.mu.Unlock()
	if c.disk == nil {
		return nil, "", false
	}
	prog, err := c.disk.Get(key)
	if err != nil {
		return nil, "", false
	}
	return prog, "disk", true
}

// AdmitKeyed verifies and installs a translation made elsewhere under
// an explicit cache key. The key is parsed back into the machine and
// segment shape the program claims to target so the admission gate
// checks it against the right policy; a key that does not parse, names
// an unknown machine, or carries a program the verifier refuses is
// rejected outright.
//
// Containment alone does not prove the program is the translation its
// key names, so when retranslate is non-nil the correspondence check
// runs on every call (not sampled like the peer-fill path) — a
// sandboxed-but-semantically-wrong program is refused, counted, and
// never installed.
//
// The disk tier is written only when it has no entry for the key yet:
// an admission must never replace a translation this node already
// verified and persisted.
func (c *Cache) AdmitKeyed(k string, prog *target.Program, retranslate func() (*target.Program, error)) error {
	mach, si, opt, err := ParseKey(k)
	if err != nil {
		return err
	}
	if !opt.SFI {
		return ErrUnsandboxed
	}
	if err := c.admit(nil, prog, mach, si); err != nil {
		return err
	}
	if retranslate != nil {
		if err := c.correspond(nil, prog, retranslate); err != nil {
			c.ctr.peerQuarantines.Add(1)
			return err
		}
	}
	sh := c.shardFor(k)
	sh.mu.Lock()
	keep := c.insertLocked(sh, k, prog)
	sh.mu.Unlock()
	c.evict(keep)
	if c.disk == nil || !c.disk.Has(k) {
		c.writeThrough(nil, k, prog)
	}
	return nil
}

// ParseKey inverts the cache key format: it recovers the target
// machine, segment shape, and translator options a key was minted
// under. The module hash is returned via KeyModuleHash; admission only
// needs the policy fields. Keys are versioned (the "k1|" prefix), so a
// future format change is an explicit error here, not a misparse.
func ParseKey(k string) (*target.Machine, translate.SegInfo, translate.Options, error) {
	var si translate.SegInfo
	var opt translate.Options
	parts := strings.Split(k, "|")
	if len(parts) != 5 || parts[0] != "k1" {
		return nil, si, opt, fmt.Errorf("mcache: unparseable cache key %q", k)
	}
	mach := target.ByName(parts[2])
	if mach == nil {
		return nil, si, opt, fmt.Errorf("mcache: cache key names unknown machine %q", parts[2])
	}
	if _, err := fmt.Sscanf(parts[3], "%08x.%08x.%08x.%08x", &si.DataBase, &si.DataMask, &si.GPValue, &si.RegSave); err != nil {
		return nil, si, opt, fmt.Errorf("mcache: cache key segment fields %q: %v", parts[3], err)
	}
	if _, err := fmt.Sscanf(parts[4], "sfi=%t,sched=%t,gp=%t,peep=%t,hoist=%t,rsfi=%t",
		&opt.SFI, &opt.Schedule, &opt.GlobalPointer, &opt.Peephole, &opt.SFIHoist, &opt.ReadSFI); err != nil {
		return nil, si, opt, fmt.Errorf("mcache: cache key option fields %q: %v", parts[4], err)
	}
	return mach, si, opt, nil
}

// KeyModuleHash extracts the module content address from a cache key.
func KeyModuleHash(k string) (string, error) {
	parts := strings.Split(k, "|")
	if len(parts) != 5 || parts[0] != "k1" {
		return "", fmt.Errorf("mcache: unparseable cache key %q", k)
	}
	return parts[1], nil
}
