// Package mcache is the verified translation cache behind the serving
// layer: load-time translation is paid once per (module, machine,
// options, segment shape) and the resulting native program is shared by
// every subsequent sandboxed instance. Admission is gated on the SFI
// verifier — every entry is re-checked against the policy it will run
// under before it becomes visible, so the cache can never serve
// unsandboxed code even if the translator (or whoever handed us a
// pre-translated program) is buggy or malicious. This mirrors the
// translator/verifier split of the SFI literature: the translator stays
// outside the trusted computing base, and the cache is the choke point
// where the proof is checked.
//
// Concurrent requests for the same key are deduplicated: one caller
// translates while the rest wait for its result, so a burst of jobs for
// a new module costs one translation, not one per job.
//
// An optional persistent tier (internal/mcache/diskstore) lets warm
// capacity survive restarts: admitted translations are written through
// to disk, and on a memory miss the disk copy is re-admitted — but
// only after re-running the SFI verifier on it. A disk entry that
// fails integrity checks or the verifier is quarantined, never served:
// restart durability never weakens the verified-on-admission contract.
package mcache

import (
	"container/list"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"omniware/internal/audit"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/ovm"
	"omniware/internal/sfi"
	"omniware/internal/sfi/absint"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// ErrUnsandboxed is returned for requests without SFI enabled: the
// cache only holds programs whose containment the verifier has proved,
// and a translation without sandboxing checks can never pass admission.
// Callers that really want an unsandboxed run translate directly.
var ErrUnsandboxed = errors.New("mcache: refusing to cache a translation without SFI")

// DefaultLimit is the default code-size budget (bytes of cached native
// code, estimated) when New is given a non-positive limit.
const DefaultLimit = 64 << 20

// VerifyMode selects which SFI verifier(s) gate admission. The two
// implementations share nothing but the instruction decoder —
// sfi.Check is a linear scan with a fold-state machine, absint.Check
// an abstract interpreter over the CFG — so running both and
// demanding agreement means a single-verifier soundness bug cannot
// admit an uncontained program on its own.
type VerifyMode int

const (
	// VerifyCheck gates admission on sfi.Check alone — the production
	// default: one linear pass, no CFG construction.
	VerifyCheck VerifyMode = iota
	// VerifyAbsint gates admission on the abstract interpreter alone.
	VerifyAbsint
	// VerifyBoth runs both verifiers and admits only when both accept.
	// A disagreement (either direction) rejects the program and is
	// counted in Stats.Disagreements — it means one of the verifiers
	// has a bug, and the cache refuses to guess which.
	VerifyBoth
)

func (v VerifyMode) String() string {
	switch v {
	case VerifyAbsint:
		return "absint"
	case VerifyBoth:
		return "both"
	default:
		return "check"
	}
}

// instCost estimates the in-memory size of one target.Inst for the
// eviction budget. Exactness doesn't matter; monotonicity in code
// length does.
const instCost = 40

// Stats is a snapshot of the cache counters. Misses equals the number
// of translations the cache performed; Hits counts entries served from
// memory ready-made; DiskHits counts entries re-admitted from the
// persistent tier (verified again, but not retranslated); Coalesced
// counts callers that piggybacked on a lookup already in flight (also
// served without translating).
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Coalesced uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	Rejected  uint64 // admission failures: verifier refused the program
	// Disagreements counts VerifyBoth admissions where the two
	// verifiers returned different verdicts. Every disagreement is
	// also a rejection; a nonzero value means a verifier bug.
	Disagreements uint64
	Entries       int
	CodeBytes     int64

	DiskHits        uint64 // programs served from disk after re-verification
	DiskWrites      uint64 // programs written through to the persistent tier
	DiskQuarantines uint64 // disk entries refused (corrupt or unverifiable) and set aside

	PeerHits        uint64 // programs admitted from a cluster peer (verified again, not retranslated)
	PeerQuarantines uint64 // peer candidates refused by the admission gate or spot check
	SpotChecks      uint64 // peer admissions sampled for retranslation equality
	SpotCheckFails  uint64 // spot checks where the peer's program was not the local translation

	Audits           uint64 // audit pipeline runs (memoization misses)
	AuditHits        uint64 // audit reports served memoized
	AuditDiskWrites  uint64 // audit reports written through to the persistent tier
	AuditQuarantines uint64 // stored audits that disagreed with re-derivation and were set aside
}

// ModuleHash returns the content address of a module: the hex SHA-256
// of its canonical wire (OMW) encoding — the same bytes that travel
// over the network and sit on disk, so a module has one identity
// everywhere. Two modules with the same hash are the same mobile
// program, wherever they came from.
func ModuleHash(mod *ovm.Module) string {
	return wire.HashModule(mod)
}

// key identifies one translation: same module content, same target
// machine, same translator options, same segment shape. Any difference
// in these changes the emitted code (or the SFI masks baked into it),
// so they are all part of the identity. The format is explicit —
// field by field, versioned — because keys outlive the process: the
// persistent tier files entries under them, and a silent key change
// would detach every stored translation.
func key(modHash string, mach *target.Machine, si translate.SegInfo, opt translate.Options) string {
	return fmt.Sprintf("k1|%s|%s|%08x.%08x.%08x.%08x|sfi=%t,sched=%t,gp=%t,peep=%t,hoist=%t,rsfi=%t",
		modHash, mach.Name,
		si.DataBase, si.DataMask, si.GPValue, si.RegSave,
		opt.SFI, opt.Schedule, opt.GlobalPointer, opt.Peephole, opt.SFIHoist, opt.ReadSFI)
}

// Key returns the full cache key for one translation identity — the
// name entries are filed under in memory and in the persistent tier.
// Exported so tests and operator tooling can address stored entries.
func Key(mod *ovm.Module, mach *target.Machine, si translate.SegInfo, opt translate.Options) string {
	return key(ModuleHash(mod), mach, si, opt)
}

type entry struct {
	key  string
	prog *target.Program
	size int64
	// hits counts memory-tier hits on this entry (under the shard
	// lock); the replication layer reads it through Hot to decide what
	// is worth pushing to successor peers.
	hits uint64
	// stamp is the value of the cache's global use clock at this
	// entry's last touch. Per-shard lists keep exact recency order
	// within a shard; stamps order entries across shards so eviction
	// can find the globally least-recently-used candidate.
	stamp uint64
}

type flight struct {
	done chan struct{}
	prog *target.Program
	err  error
}

// numShards splits the index so concurrent lookups for different keys
// do not serialize on one mutex. A power of two; the shard is chosen
// by key hash.
const numShards = 16

// shard is one slice of the index: its own lock, recency list, key
// map, and in-flight table. Everything a warm hit touches lives in
// exactly one shard.
type shard struct {
	mu       sync.Mutex
	lru      list.List // of *entry; front = most recently used in this shard
	byKey    map[string]*list.Element
	inflight map[string]*flight
}

// counters are the monotonic statistics, kept atomic so the sharded
// paths never contend on a stats lock.
type counters struct {
	lookups, hits, coalesced, misses      atomic.Uint64
	inserts, evictions                    atomic.Uint64
	rejected, disagreements               atomic.Uint64
	diskHits, diskWrites, diskQuarantines atomic.Uint64
	peerHits, peerQuarantines             atomic.Uint64
	peerSpotChecks, peerSpotCheckFails    atomic.Uint64
	audits, auditHits                     atomic.Uint64
	auditDiskWrites, auditQuarantines     atomic.Uint64
}

// Cache is a content-addressed translation cache with LRU eviction by
// estimated code size and an optional persistent tier. The zero value
// is not usable; call New or NewWith. All methods are safe for
// concurrent use; the index is sharded by key hash so a worker-pool's
// warm hits on distinct modules proceed in parallel. The code-size
// budget stays global (not per shard): eviction picks the shard whose
// oldest entry has the smallest use stamp, which preserves the
// single-LRU behavior up to races between concurrent touches.
type Cache struct {
	limit     int64
	bytes     atomic.Int64
	clock     atomic.Uint64
	shards    [numShards]shard
	ctr       counters
	disk      *diskstore.Store
	verify    VerifyMode
	peer      PeerSource
	spotEvery int
	spotClock atomic.Uint64
	logf      func(format string, args ...any)

	auditMu    sync.Mutex
	audits     map[string]*audit.Report // module hash -> memoized report
	auditOrder []string                 // insertion order, for the AuditMemoCap eviction
}

// AuditMemoCap bounds the memoized audit reports, oldest out first.
// netserve takes its default registry cap from it: the memo serves the
// modules a node holds, and a report that fell out (a larger registry,
// refused modules taking slots) is re-derived on demand.
const AuditMemoCap = 256

// shardFor hashes k (FNV-1a, inlined to stay allocation-free) to its
// home shard.
func (c *Cache) shardFor(k string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return &c.shards[h%numShards]
}

// Config sizes a cache. The zero value selects an in-memory cache of
// DefaultLimit bytes with no persistent tier.
type Config struct {
	// Limit is the in-memory code-size budget (non-positive =
	// DefaultLimit). The persistent tier is not budgeted here.
	Limit int64
	// Disk, when non-nil, is the persistent tier: admissions write
	// through to it, and memory misses probe it before translating.
	// Disk entries are re-verified on every read; failures are
	// quarantined and logged.
	Disk *diskstore.Store
	// Verify selects the admission gate: sfi.Check alone (the zero
	// value), the abstract interpreter alone, or both-must-agree.
	Verify VerifyMode
	// Peer, when non-nil, is probed on a memory+disk miss for an
	// existing translation before retranslating. Peer candidates pass
	// the same admission gate as disk entries; refusals are counted
	// and reported back per peer.
	Peer PeerSource
	// PeerSpotCheckEvery samples every Nth peer admission for an
	// integrity spot check: the module is retranslated locally and the
	// two programs must match instruction for instruction. 0 disables.
	PeerSpotCheckEvery int
	// Logf receives quarantine and disk-failure reports (default
	// log.Printf). Disk problems never fail a lookup — the cache falls
	// back to translating — so the log is their only trace.
	Logf func(format string, args ...any)
}

// New creates a memory-only cache holding at most limit estimated
// bytes of translated code (non-positive = DefaultLimit).
func New(limit int64) *Cache {
	return NewWith(Config{Limit: limit})
}

// NewWith creates a cache from cfg.
func NewWith(cfg Config) *Cache {
	if cfg.Limit <= 0 {
		cfg.Limit = DefaultLimit
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	c := &Cache{
		limit:     cfg.Limit,
		disk:      cfg.Disk,
		verify:    cfg.Verify,
		peer:      cfg.Peer,
		spotEvery: cfg.PeerSpotCheckEvery,
		logf:      cfg.Logf,
		audits:    map[string]*audit.Report{},
	}
	for i := range c.shards {
		c.shards[i].byKey = map[string]*list.Element{}
		c.shards[i].inflight = map[string]*flight{}
	}
	return c
}

func progSize(p *target.Program) int64 {
	return int64(len(p.Code))*instCost + int64(len(p.OmniToNative))*4
}

// Translate returns the native program for (mod, mach, si, opt),
// translating and admitting it on a miss. The boolean reports whether
// the program was served without a translation in this call (a cache
// hit or a coalesced wait on another caller's translation). Admission
// is mandatory: a program that fails the SFI verifier is never cached
// and the error is returned to every waiting caller.
func (c *Cache) Translate(mod *ovm.Module, mach *target.Machine, si translate.SegInfo, opt translate.Options) (*target.Program, bool, error) {
	return c.TranslateTraced(nil, mod, mach, si, opt)
}

// TranslateTraced is Translate with an omnitrace span: the lookup
// outcome and the timed sub-stages (disk probe, translation with its
// phase split, SFI verification, write-through) are recorded as
// children of sp. A nil sp records nothing and costs nothing.
func (c *Cache) TranslateTraced(sp *trace.Span, mod *ovm.Module, mach *target.Machine, si translate.SegInfo, opt translate.Options) (*target.Program, bool, error) {
	return c.translateTraced(sp, mod, mach, si, opt, true)
}

// TranslateNoPeer is TranslateTraced with the peer tier disabled for
// this lookup: memory, coalescing, disk and local translation only.
// It exists for the peer-serving path — a node filling a probe FROM a
// peer must not probe its own peers in turn (the ring would recurse),
// so the on-demand owner fill translates locally and lets replication
// spread the result.
func (c *Cache) TranslateNoPeer(sp *trace.Span, mod *ovm.Module, mach *target.Machine, si translate.SegInfo, opt translate.Options) (*target.Program, bool, error) {
	return c.translateTraced(sp, mod, mach, si, opt, false)
}

func (c *Cache) translateTraced(sp *trace.Span, mod *ovm.Module, mach *target.Machine, si translate.SegInfo, opt translate.Options, usePeer bool) (*target.Program, bool, error) {
	if !opt.SFI {
		return nil, false, ErrUnsandboxed
	}
	k := key(ModuleHash(mod), mach, si, opt)
	sh := c.shardFor(k)

	c.ctr.lookups.Add(1)
	sh.mu.Lock()
	if el, ok := sh.byKey[k]; ok {
		c.ctr.hits.Add(1)
		sh.lru.MoveToFront(el)
		e := el.Value.(*entry)
		e.stamp = c.clock.Add(1)
		e.hits++
		prog := e.prog
		sh.mu.Unlock()
		sp.Set("result", "hit")
		return prog, true, nil
	}
	if f, ok := sh.inflight[k]; ok {
		c.ctr.coalesced.Add(1)
		sh.mu.Unlock()
		wsp := sp.Child("coalesce_wait")
		<-f.done
		wsp.End()
		sp.Set("result", "coalesced")
		return f.prog, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	sh.inflight[k] = f
	sh.mu.Unlock()

	// Warm tiers first: a verified disk entry — or a peer's verified-
	// on-arrival translation — saves the translation entirely. warm
	// distinguishes "served without translating here" for the caller's
	// accounting; fromDisk additionally skips the redundant
	// write-through (a peer fill does want one).
	prog, fromDisk := c.loadFromDisk(sp, k, mach, si)
	warm := fromDisk
	if fromDisk {
		sp.Set("result", "disk")
	} else if usePeer && c.peer != nil {
		retranslate := func() (*target.Program, error) {
			return translate.Translate(mod, mach, si, opt)
		}
		if p, ok := c.loadFromPeer(sp, k, retranslate, mach, si); ok {
			prog, warm = p, true
			sp.Set("result", "peer")
		}
	}
	var err error
	if !warm {
		c.ctr.misses.Add(1)
		tsp := sp.Child("translate")
		var tim translate.Timings
		prog, tim, err = translate.TranslateTimed(mod, mach, si, opt)
		if err == nil {
			tsp.Set("expand", tim.Expand).Set("sched", tim.Schedule).Set("finish", tim.Finish)
			tsp.Set("insts", len(prog.Code))
		}
		tsp.End()
		if err == nil {
			err = c.admit(sp, prog, mach, si)
		}
		sp.Set("result", "miss")
	}
	f.prog, f.err = prog, err
	if err != nil {
		f.prog = nil
	}

	sh.mu.Lock()
	delete(sh.inflight, k)
	var keep *entry
	if err == nil {
		keep = c.insertLocked(sh, k, prog)
	}
	sh.mu.Unlock()
	if keep != nil {
		c.evict(keep)
	}
	close(f.done)
	if err != nil {
		return nil, false, err
	}
	if !fromDisk {
		c.writeThrough(sp, k, prog)
	}
	return prog, warm, nil
}

// loadFromDisk probes the persistent tier for k and re-verifies
// whatever it finds. Only a program that passes sfi.Check again is
// returned; integrity or verification failures quarantine the entry.
// All failures degrade to a plain miss — the disk tier can lose
// entries, but it can never serve a bad one or fail a lookup.
func (c *Cache) loadFromDisk(sp *trace.Span, k string, mach *target.Machine, si translate.SegInfo) (*target.Program, bool) {
	if c.disk == nil {
		return nil, false
	}
	dsp := sp.Child("disk_read")
	prog, err := c.disk.Get(k)
	dsp.End()
	if errors.Is(err, diskstore.ErrNotFound) {
		return nil, false
	}
	if err == nil {
		err = c.admit(sp, prog, mach, si)
	}
	if err != nil {
		if qerr := c.disk.Quarantine(k); qerr != nil {
			c.logf("mcache: quarantining disk entry for %q: %v", k, qerr)
		}
		c.logf("mcache: disk entry for %q quarantined: %v", k, err)
		c.ctr.diskQuarantines.Add(1)
		return nil, false
	}
	c.ctr.diskHits.Add(1)
	return prog, true
}

// writeThrough persists an admitted translation. Failures are logged,
// not returned: the memory tier already holds the verified program, so
// a sick disk only costs future restarts their warm start.
func (c *Cache) writeThrough(sp *trace.Span, k string, prog *target.Program) {
	if c.disk == nil {
		return
	}
	wsp := sp.Child("disk_write")
	defer wsp.End()
	if err := c.disk.Put(k, prog); err != nil {
		c.logf("mcache: writing %q to disk: %v", k, err)
		return
	}
	c.ctr.diskWrites.Add(1)
}

// admit is the verifier gate every entry passes through. Which
// verifier(s) run is the cache's VerifyMode; under VerifyBoth the two
// must agree, and a split verdict is rejected and counted as a
// disagreement rather than resolved in either verifier's favor.
func (c *Cache) admit(sp *trace.Span, prog *target.Program, mach *target.Machine, si translate.SegInfo) error {
	vsp := sp.Child("verify")
	vsp.Set("mode", c.verify.String())
	var err error
	if c.verify == VerifyCheck || c.verify == VerifyBoth {
		st, cerr := sfi.CheckStats(prog, mach, si)
		vsp.Set("stores", st.Stores).Set("indirects", st.Indirects).Set("sandbox_ops", st.SandboxOps)
		err = cerr
	}
	if c.verify == VerifyAbsint || c.verify == VerifyBoth {
		st, aerr := absint.CheckStats(prog, mach, si)
		vsp.Set("absint_stores", st.Stores).Set("absint_indirects", st.Indirects).Set("absint_blocks", st.Blocks)
		if c.verify == VerifyBoth && (err == nil) != (aerr == nil) {
			c.ctr.disagreements.Add(1)
			vsp.Set("disagreement", true)
			c.logf("mcache: verifier disagreement (sfi.Check: %v; absint: %v)", err, aerr)
			err = fmt.Errorf("verifier disagreement: sfi.Check says %s, absint says %s (check: %v; absint: %v)",
				verdict(err), verdict(aerr), err, aerr)
		} else if aerr != nil {
			err = aerr
		}
	}
	vsp.End()
	if err != nil {
		c.ctr.rejected.Add(1)
		return fmt.Errorf("mcache: admission rejected: %w", err)
	}
	return nil
}

func verdict(err error) string {
	if err == nil {
		return "accept"
	}
	return "reject"
}

// insertLocked adds an entry to sh (whose lock the caller holds) and
// returns it so the caller can run eviction with the fresh entry
// protected. A raced duplicate keeps the incumbent (identical by
// construction) and refreshes its recency.
func (c *Cache) insertLocked(sh *shard, k string, prog *target.Program) *entry {
	if el, ok := sh.byKey[k]; ok {
		sh.lru.MoveToFront(el)
		e := el.Value.(*entry)
		e.stamp = c.clock.Add(1)
		return e
	}
	e := &entry{key: k, prog: prog, size: progSize(prog), stamp: c.clock.Add(1)}
	sh.byKey[k] = sh.lru.PushFront(e)
	c.bytes.Add(e.size)
	c.ctr.inserts.Add(1)
	return e
}

// evict removes least-recently-used entries until the global budget is
// met, never removing keep (the entry the caller just handed out —
// it survives even if it alone exceeds the limit). Each shard's list
// is exactly ordered, so the globally oldest entry is one of the
// shards' back entries; evict scans those stamps holding one shard
// lock at a time and removes the minimum. Concurrent touches can
// reorder between scan and removal, which costs only approximation,
// never a missing or double-counted entry.
func (c *Cache) evict(keep *entry) {
	for c.bytes.Load() > c.limit {
		var victim *shard
		oldest := ^uint64(0)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			if back := sh.lru.Back(); back != nil {
				e := back.Value.(*entry)
				if e != keep && e.stamp <= oldest {
					oldest, victim = e.stamp, sh
				}
			}
			sh.mu.Unlock()
		}
		if victim == nil {
			return
		}
		victim.mu.Lock()
		back := victim.lru.Back()
		if back == nil || back.Value.(*entry) == keep {
			victim.mu.Unlock()
			continue
		}
		ev := back.Value.(*entry)
		victim.lru.Remove(back)
		delete(victim.byKey, ev.key)
		c.bytes.Add(-ev.size)
		c.ctr.evictions.Add(1)
		victim.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Lookups:         c.ctr.lookups.Load(),
		Hits:            c.ctr.hits.Load(),
		Coalesced:       c.ctr.coalesced.Load(),
		Misses:          c.ctr.misses.Load(),
		Inserts:         c.ctr.inserts.Load(),
		Evictions:       c.ctr.evictions.Load(),
		Rejected:        c.ctr.rejected.Load(),
		Disagreements:   c.ctr.disagreements.Load(),
		DiskHits:        c.ctr.diskHits.Load(),
		DiskWrites:      c.ctr.diskWrites.Load(),
		DiskQuarantines: c.ctr.diskQuarantines.Load(),
		PeerHits:        c.ctr.peerHits.Load(),
		PeerQuarantines: c.ctr.peerQuarantines.Load(),
		SpotChecks:      c.ctr.peerSpotChecks.Load(),
		SpotCheckFails:  c.ctr.peerSpotCheckFails.Load(),

		Audits:           c.ctr.audits.Load(),
		AuditHits:        c.ctr.auditHits.Load(),
		AuditDiskWrites:  c.ctr.auditDiskWrites.Load(),
		AuditQuarantines: c.ctr.auditQuarantines.Load(),

		CodeBytes: c.bytes.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return s
}
