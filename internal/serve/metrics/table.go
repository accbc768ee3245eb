package metrics

// Scalar declares one scalar metric: its name (the Snapshot field's
// JSON key and the Text line; Prometheus adds the omni_ prefix and, on
// counters, the _total suffix), its help string, and where it lives in
// a Snapshot. Exactly one accessor is set, and it says the kind:
// counters are uint64 fields that only grow, gauges int64 fields that
// hold a level. The live copy, the fleet merge, the interval
// subtraction, Text and Prom all loop over scalars, so a metric is
// declared here once.
type Scalar struct {
	name, prom, help string
	counter          func(*Snapshot) *uint64
	gauge            func(*Snapshot) *int64
}

// scalars is every scalar metric in rendering order: the rows below,
// appended as their declarations run, which is in source order.
var scalars []*Scalar

func counter(name, help string, field func(*Snapshot) *uint64) *Scalar {
	scalars = append(scalars, &Scalar{name: name, prom: name + "_total", help: help, counter: field})
	return scalars[len(scalars)-1]
}

func gauge(name, help string, field func(*Snapshot) *int64) *Scalar {
	scalars = append(scalars, &Scalar{name: name, prom: name, help: help, gauge: field})
	return scalars[len(scalars)-1]
}

// The table. A named row is one the serving layer itself counts
// (Metrics.Add takes the name); the cache rows are filled in by the
// server from mcache.Stats. To add a metric: a Snapshot field, a row
// here, and the increment.
var (
	JobsSubmitted   = counter("jobs_submitted", "Jobs accepted into the queue.", func(s *Snapshot) *uint64 { return &s.JobsSubmitted })
	JobsRun         = counter("jobs_run", "Jobs that finished cleanly.", func(s *Snapshot) *uint64 { return &s.JobsRun })
	JobsFailed      = counter("jobs_failed", "Jobs that failed (fault, budget, timeout, bad input).", func(s *Snapshot) *uint64 { return &s.JobsFailed })
	FaultsContained = counter("faults_contained", "Failed jobs whose fault the server absorbed.", func(s *Snapshot) *uint64 { return &s.FaultsContained })
	Timeouts        = counter("timeouts", "Jobs killed by the per-job deadline.", func(s *Snapshot) *uint64 { return &s.Timeouts })
	Translations    = counter("translations", "Load-time translations performed for jobs.", func(s *Snapshot) *uint64 { return &s.Translations })
	SimInsts        = counter("sim_insts", "Native instructions simulated across jobs.", func(s *Snapshot) *uint64 { return &s.SimInsts })
	SimCycles       = counter("sim_cycles", "Simulated pipeline cycles across jobs.", func(s *Snapshot) *uint64 { return &s.SimCycles })
	QueueDepth      = gauge("queue_depth", "Jobs submitted but not yet finished.", func(s *Snapshot) *int64 { return &s.QueueDepth })

	_ = counter("cache_hits", "Translation cache memory hits.", func(s *Snapshot) *uint64 { return &s.CacheHits })
	_ = counter("cache_coalesced", "Lookups that waited on an in-flight translation.", func(s *Snapshot) *uint64 { return &s.CacheCoalesced })
	_ = counter("cache_misses", "Lookups that translated.", func(s *Snapshot) *uint64 { return &s.CacheMisses })
	_ = counter("cache_evictions", "LRU evictions.", func(s *Snapshot) *uint64 { return &s.CacheEvictions })
	_ = counter("cache_rejected", "Programs the SFI verifier refused to admit.", func(s *Snapshot) *uint64 { return &s.CacheRejected })
	_ = gauge("cache_entries", "Live cache entries.", func(s *Snapshot) *int64 { return &s.CacheEntries })
	_ = gauge("cache_bytes", "Code bytes held by the cache.", func(s *Snapshot) *int64 { return &s.CacheBytes })
	_ = counter("cache_disk_hits", "Disk-tier hits (re-verified on read).", func(s *Snapshot) *uint64 { return &s.CacheDiskHits })
	_ = counter("cache_disk_writes", "Disk-tier write-throughs.", func(s *Snapshot) *uint64 { return &s.CacheDiskWrites })
	_ = counter("cache_disk_quarantines", "Disk entries quarantined after failing re-verification.", func(s *Snapshot) *uint64 { return &s.CacheDiskQuarantines })
	_ = counter("cache_disagreements", "Dual-gate admissions where the two SFI verifiers split the verdict.", func(s *Snapshot) *uint64 { return &s.CacheDisagreements })

	AuditPass = counter("audit_pass", "Uploads the audit gate admitted without violation.", func(s *Snapshot) *uint64 { return &s.AuditPass })

	// The cluster peer-fill counters are the rows from here on: both
	// renderings put the audit outcome families before them, and Text
	// prints them only in cluster mode.
	peerFillFrom = len(scalars)

	_ = counter("cache_peer_hits", "Translations admitted from cluster peers (re-verified on arrival).", func(s *Snapshot) *uint64 { return &s.CachePeerHits })
	_ = counter("cache_peer_quarantines", "Peer candidates refused by the admission gate or spot check.", func(s *Snapshot) *uint64 { return &s.CachePeerQuarantines })
	_ = counter("cache_spot_checks", "Peer admissions sampled for retranslation equality.", func(s *Snapshot) *uint64 { return &s.CacheSpotChecks })
	_ = counter("cache_spot_check_fails", "Spot checks where the peer program was not the local translation.", func(s *Snapshot) *uint64 { return &s.CacheSpotCheckFails })
)

// Stage indexes the pipeline stages that have a latency histogram, in
// reporting order: wire decode (uploads), static audit (one sample per
// report derivation: at admission, or on the first GET /v1/audit/{hash}
// when the gate is off), queue wait (admission to
// dequeue), the translate stage (cache lookup through admission), the
// cluster peer probe within it (when a peer source is wired), SFI
// verification alone, and job run time (dequeue to completion, queue
// excluded).
type Stage int

const (
	StageDecode Stage = iota
	StageAudit
	StageQueueWait
	StageTranslate
	StagePeerFetch
	StageVerify
	StageRun
)

// StageNames names the stages, indexed by Stage.
var StageNames = [...]string{"decode", "audit", "queue_wait", "translate", "peer_fetch", "verify", "run"}

// AuditReasons is the closed set of audit-gate failure reasons
// (mirrors audit.GateReasons without the import; a cluster test pins the
// two together). Outcome counters are pre-registered at zero for
// every reason in both the JSON snapshot and the Prometheus rendering,
// matching the quarantine-reason convention, so scrapers see the full
// label set from the first scrape.
var AuditReasons = [...]string{"stack", "cost", "capability", "recursion"}

// auditOutcomes are the two counter families labelled by AuditReasons.
// text is the Text line prefix; the reason completes it.
var auditOutcomes = [...]struct {
	name, text, help string
	field            func(*Snapshot) *map[string]uint64
}{
	auditWarns:   {"audit_warns", "audit_warn_", "Warn-mode audit violations by reason.", func(s *Snapshot) *map[string]uint64 { return &s.AuditWarns }},
	auditRejects: {"audit_rejects", "audit_reject_", "Enforce-mode audit rejections by reason.", func(s *Snapshot) *map[string]uint64 { return &s.AuditRejects }},
}

const auditWarns, auditRejects = 0, 1

// peerCounters are the per-peer protocol counters, one Prometheus
// family omni_cluster_peer_<name>_total each; split, where set, is the
// counter's breakdown by reason.
var peerCounters = [...]struct {
	name, help string
	field      func(*PeerStats) *uint64
	split      func(*PeerStats) map[string]uint64
}{
	{name: "hits", help: "Peer-fill admissions by supplying peer.", field: func(p *PeerStats) *uint64 { return &p.Hits }},
	{name: "quarantines", help: "Peer candidates quarantined by supplying peer and reason.", field: func(p *PeerStats) *uint64 { return &p.Quarantines },
		split: func(p *PeerStats) map[string]uint64 { return p.QuarantinesByReason }},
	{name: "errors", help: "Transport or protocol failures probing a peer.", field: func(p *PeerStats) *uint64 { return &p.Errors }},
}
