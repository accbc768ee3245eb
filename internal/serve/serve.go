// Package serve turns the one-shot Omniware host into a module-hosting
// service: a worker pool executes (module, target, options) jobs, each
// in a fresh sandboxed address space, against a shared verified
// translation cache (internal/mcache) so translation cost is paid once
// per distinct program rather than once per run — the serving-layer
// consequence of the paper's load-time translation design.
//
// The fault-containment contract: anything a module does wrong — an
// access violation, an exhausted instruction budget, a blown per-job
// deadline — fails that job's Result and nothing else. Workers outlive
// misbehaving jobs; jobs never share mutable state (each owns its
// seg.Memory and hostapi.Env; only the immutable Module and its cached
// translations are shared).
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/ovm"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

// Job is one request: run Mod on Machine under Opt with the given
// budgets. The zero values of the budget fields select the core
// defaults.
type Job struct {
	ID      string
	Mod     *ovm.Module
	Machine *target.Machine
	Opt     translate.Options

	Heap     uint32
	Stack    uint32
	MaxSteps uint64        // instruction budget (0 = core default)
	Timeout  time.Duration // wall-clock deadline (0 = none)

	// Setup, when non-nil, deposits job input into the freshly loaded
	// address space before execution (argv/stdin-style state), exactly
	// as the example hosts do.
	Setup func(h *core.Host) error

	// Post, when non-nil, runs after execution and digests module
	// memory into Result.Post — how a job extracts results the module
	// left in its address space (the docscript pattern).
	Post func(h *core.Host) (string, error)

	// Decode, when nonzero, is the wire-decode cost already paid for
	// this module (at upload, in the network layer). It is attached to
	// the job trace as a backdated "decode" span so the rendered tree
	// covers the full pipeline the job logically passed through.
	Decode time.Duration

	// Audit, when nonzero, is the admission-time static-analysis cost
	// already paid for this module (at upload or peer fill, in the
	// network layer); like Decode it becomes a backdated span.
	Audit time.Duration

	// RequestID is the originating HTTP request id; it rides the trace
	// (trace.Trace.SetRequestID) so cross-node peer probes forward the
	// origin's id instead of minting one per hop.
	RequestID string

	// ModuleFetch, when nonzero, is the time the network layer spent
	// pulling the module from a cluster peer before admission; like
	// Decode it becomes a backdated span. ModuleFetchRemote, when the
	// peer returned one, is that node's own span subtree for the fetch,
	// grafted under the backdated span with ModuleFetchPeer as its node
	// annotation.
	ModuleFetch       time.Duration
	ModuleFetchRemote *trace.Span
	ModuleFetchPeer   string
}

// Result is one job's outcome. Err reports job-level failure
// (translation rejected, timeout, budget exhaustion, bad input); the
// fields below it are valid when Err is nil.
type Result struct {
	ID       string
	Err      error
	ExitCode int32
	Output   string
	Faulted  bool // module died on an unhandled access violation
	Fault    string
	Cycles   uint64
	Insts    uint64
	Cached   bool   // translation served from the cache (hit or coalesced)
	Post     string // output of Job.Post, when set

	// QueueWait is how long the job sat admitted-but-unstarted; Run is
	// dequeue to completion. Their sum is the job's wall-clock inside
	// the server — the split tells congestion apart from slow modules.
	QueueWait time.Duration
	Run       time.Duration

	// Attr groups the dynamic instruction counts by who they work for
	// (valid when the module actually ran).
	Attr target.Attribution

	// Trace is the job's finished span tree (also retrievable from the
	// server's trace ring by job ID).
	Trace *trace.Trace
}

// Config sizes a Server. Zero values select defaults.
type Config struct {
	Workers  int           // worker goroutines (default GOMAXPROCS)
	QueueCap int           // submit backlog before Submit blocks (default 256)
	Cache    *mcache.Cache // shared translation cache (default mcache.New(0))
}

type task struct {
	job Job
	ch  chan Result
	tr  *trace.Trace // created at admission; Begin marks submit time
}

// ErrClosed is the Result.Err of a job submitted after Close: the
// server refused it without running anything.
var ErrClosed = errors.New("serve: server closed")

// Process exit codes shared by the serving CLIs (omnictl, omniload):
// clean, "the service worked but some jobs faulted (contained)", and
// "the infrastructure itself failed or was misused". Parity
// mismatches count as infrastructure failures — they mean the system,
// not the module, is wrong.
const (
	ExitOK     = 0 // every job ran cleanly
	ExitFaults = 1 // some jobs faulted or failed; every fault contained
	ExitInfra  = 2 // flag/build/network errors, or parity loss
)

// Server is a running worker pool. Create with New, feed with Submit
// or TrySubmit, stop with Close.
type Server struct {
	cache  *mcache.Cache
	met    *metrics.Metrics
	traces *trace.Recorder
	slow   *trace.TopK
	tasks  chan task
	wg     sync.WaitGroup

	// cluster, when set, supplies the cluster section of Snapshot
	// (see SetClusterSnapshot).
	cluster func() metrics.ClusterSnapshot

	// closeMu serializes Submit sends against Close's channel close:
	// Submit holds it shared around the send, Close holds it exclusive
	// while flipping closed — so no send can race the close, and
	// Submit after Close fails softly instead of panicking.
	closeMu sync.RWMutex
	closed  bool
}

// New starts a server with cfg's workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Cache == nil {
		cfg.Cache = mcache.New(0)
	}
	s := &Server{
		cache:  cfg.Cache,
		met:    &metrics.Metrics{},
		traces: trace.NewRecorder(trace.DefaultRecorderCap),
		slow:   trace.NewTopK(trace.DefaultTopKCap),
		tasks:  make(chan task, cfg.QueueCap),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues a job and returns the channel its Result will be
// delivered on (buffered; the worker never blocks on it). Submit
// blocks while the queue is full. Submitting to a closed server (or
// one that closes while the job waits for a queue slot) is safe: the
// job is refused with a Result whose Err is ErrClosed.
func (s *Server) Submit(j Job) <-chan Result {
	ch := make(chan Result, 1)
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		ch <- Result{ID: j.ID, Err: ErrClosed}
		return ch
	}
	s.met.Add(metrics.JobsSubmitted, 1)
	s.met.Add(metrics.QueueDepth, 1)
	s.tasks <- task{job: j, ch: ch, tr: s.newTrace(j)}
	s.closeMu.RUnlock()
	return ch
}

// newTrace opens the job's trace at admission time, so the root span
// covers queue wait as well as execution.
func (s *Server) newTrace(j Job) *trace.Trace {
	tr := trace.New(j.ID, "job")
	tr.SetRequestID(j.RequestID)
	if j.Machine != nil {
		tr.Target = j.Machine.Name
	}
	if j.Decode > 0 {
		tr.Root.ChildSpan("decode", 0, j.Decode).Set("at", "upload")
	}
	if j.Audit > 0 {
		tr.Root.ChildSpan("audit", 0, j.Audit).Set("at", "upload")
	}
	if j.ModuleFetch > 0 {
		msp := tr.Root.ChildSpan("module_fetch", 0, j.ModuleFetch)
		if j.ModuleFetchPeer != "" {
			msp.Set("peer", j.ModuleFetchPeer)
		}
		msp.AttachRemote(j.ModuleFetchRemote, j.ModuleFetchPeer)
	}
	return tr
}

// TrySubmit is the non-blocking Submit the network front door uses to
// shed load: when the server is closed or the admission queue is full
// it reports false immediately instead of queueing, and the caller
// turns that into backpressure (HTTP 429) rather than unbounded
// buffering.
func (s *Server) TrySubmit(j Job) (<-chan Result, bool) {
	ch := make(chan Result, 1)
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, false
	}
	select {
	case s.tasks <- task{job: j, ch: ch, tr: s.newTrace(j)}:
		s.met.Add(metrics.JobsSubmitted, 1)
		s.met.Add(metrics.QueueDepth, 1)
		return ch, true
	default:
		return nil, false
	}
}

// Close stops accepting jobs and waits for queued and in-flight ones
// to finish. It is idempotent and safe to call concurrently — with
// other Close calls and with in-flight Submit/TrySubmit: submissions
// that lose the race are refused with ErrClosed, never lost or
// panicked on, and every Close call waits for the drain to complete.
func (s *Server) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.tasks)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
}

// Cache returns the shared translation cache.
func (s *Server) Cache() *mcache.Cache { return s.cache }

// Metrics returns the live counter set.
func (s *Server) Metrics() *metrics.Metrics { return s.met }

// Traces returns the ring of recent finished job traces.
func (s *Server) Traces() *trace.Recorder { return s.traces }

// Slow returns the slow-trace exemplar store: the K slowest finished
// traces this server ever produced, surviving arbitrary ring churn.
func (s *Server) Slow() *trace.TopK { return s.slow }

// Snapshot merges the server counters with the cache's.
func (s *Server) Snapshot() metrics.Snapshot {
	snap := s.met.Snapshot()
	cacheSection(&snap, s.cache.Stats())
	if s.cluster != nil {
		cl := s.cluster()
		snap.Cluster = &cl
	}
	return snap
}

// cacheSection is the one mapping from the cache's counters to the
// snapshot's cache_* fields. A test holds it complete: every counter
// of mcache.Stats lands in a field of its own, bar the two the
// snapshot does not report (Lookups, Inserts).
func cacheSection(snap *metrics.Snapshot, cs mcache.Stats) {
	snap.CacheHits = cs.Hits
	snap.CacheCoalesced = cs.Coalesced
	snap.CacheMisses = cs.Misses
	snap.CacheEvictions = cs.Evictions
	snap.CacheRejected = cs.Rejected
	snap.CacheDisagreements = cs.Disagreements
	snap.CacheEntries = int64(cs.Entries)
	snap.CacheBytes = cs.CodeBytes
	snap.CacheDiskHits = cs.DiskHits
	snap.CacheDiskWrites = cs.DiskWrites
	snap.CacheDiskQuarantines = cs.DiskQuarantines
	snap.CachePeerHits = cs.PeerHits
	snap.CachePeerQuarantines = cs.PeerQuarantines
	snap.CacheSpotChecks = cs.SpotChecks
	snap.CacheSpotCheckFails = cs.SpotCheckFails
	snap.CacheAudits = cs.Audits
	snap.CacheAuditHits = cs.AuditHits
	snap.CacheAuditDiskWrites = cs.AuditDiskWrites
	snap.CacheAuditQuarantines = cs.AuditQuarantines
}

// SetClusterSnapshot installs the provider for the cluster section of
// Snapshot — the cluster layer registers itself here so /v1/metrics
// reports membership and per-peer counters without this package
// importing it.
func (s *Server) SetClusterSnapshot(fn func() metrics.ClusterSnapshot) { s.cluster = fn }

func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		// Queue wait: trace begin (admission) to now (dequeue). The
		// backdated child keeps the span tree consistent even though the
		// wait happened on no goroutine at all.
		qd := time.Since(t.tr.Begin)
		t.tr.Root.ChildSpan("queue_wait", 0, qd)
		s.met.Observe(metrics.StageQueueWait, qd)

		runStart := time.Now()
		r := s.execute(t.job, t.tr)
		rd := time.Since(runStart)
		s.met.Observe(metrics.StageRun, rd)
		r.QueueWait, r.Run = qd, rd

		status := "ok"
		switch {
		case r.Err != nil:
			status = "error"
		case r.Faulted:
			status = "faulted"
		}
		if r.Err != nil || r.Faulted {
			s.met.Add(metrics.JobsFailed, 1)
		} else {
			s.met.Add(metrics.JobsRun, 1)
		}
		t.tr.Finish(status)
		s.traces.Add(t.tr)
		s.slow.Add(t.tr)
		r.Trace = t.tr
		s.met.Add(metrics.QueueDepth, -1)
		t.ch <- r
	}
}

// errJobPanic marks the error execute synthesizes when a job panics a
// worker; the panic was absorbed, so it classifies as contained.
var errJobPanic = errors.New("job panicked")

// contained reports whether a job error is a fault the sandbox
// absorbed (as opposed to a malformed request the server refused).
// Classification is by typed sentinel, not message text: a reworded
// error cannot silently stop counting as contained.
func contained(err error) bool {
	return errors.Is(err, core.ErrBudget) ||
		errors.Is(err, core.ErrInterrupted) ||
		errors.Is(err, errJobPanic)
}

// execute runs one job start to finish, hanging stage spans off the
// trace root as it goes. Panics anywhere in the job path are converted
// into a failed Result — a wild job must never take a worker (or the
// server) down with it.
func (s *Server) execute(j Job, tr *trace.Trace) (r Result) {
	r.ID = j.ID
	root := tr.Root
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Errorf("serve: job %q %w: %v", j.ID, errJobPanic, p)
			s.met.Add(metrics.FaultsContained, 1)
		}
	}()
	if j.Mod == nil || j.Machine == nil {
		r.Err = fmt.Errorf("serve: job %q missing module or machine", j.ID)
		return r
	}

	// Every job gets its own address space, layout and host
	// environment; only the module and the cached translation are
	// shared, and both are immutable. The address space is drawn from
	// the host pool — recycled, scrubbed segments rather than a fresh
	// 16 MB allocation per job — which is what keeps the warm-cache
	// execute path allocation-free.
	var stop atomic.Bool
	lsp := root.Child("load")
	h, err := core.AcquireHost(j.Mod, core.RunConfig{
		Heap:      j.Heap,
		Stack:     j.Stack,
		MaxSteps:  j.MaxSteps,
		Interrupt: &stop,
	})
	lsp.End()
	if err != nil {
		r.Err = fmt.Errorf("serve: job %q load: %w", j.ID, err)
		return r
	}
	defer h.Release()
	if j.Setup != nil {
		ssp := root.Child("setup")
		err := j.Setup(h)
		ssp.End()
		if err != nil {
			r.Err = fmt.Errorf("serve: job %q setup: %w", j.ID, err)
			return r
		}
	}

	var prog *target.Program
	if j.Opt.SFI {
		csp := root.Child("cache")
		prog, r.Cached, err = s.cache.TranslateTraced(csp, j.Mod, j.Machine, h.SegInfo(), j.Opt)
		s.met.Observe(metrics.StageTranslate, csp.End())
		if vsp := csp.Find("verify"); vsp != nil {
			s.met.Observe(metrics.StageVerify, vsp.Dur())
		}
		if psp := csp.Find("peer_fetch"); psp != nil {
			s.met.Observe(metrics.StagePeerFetch, psp.Dur())
		}
		if err == nil && !r.Cached {
			s.met.Add(metrics.Translations, 1)
		}
	} else {
		// Unsandboxed runs bypass the verified cache by design: the
		// cache's admission contract is exactly that everything in it
		// passed the SFI verifier.
		tsp := root.Child("translate").Set("result", "uncached")
		prog, err = h.Translate(j.Machine, j.Opt)
		s.met.Observe(metrics.StageTranslate, tsp.End())
		s.met.Add(metrics.Translations, 1)
	}
	if err != nil {
		r.Err = fmt.Errorf("serve: job %q translation: %w", j.ID, err)
		return r
	}

	if j.Timeout > 0 {
		timer := time.AfterFunc(j.Timeout, func() { stop.Store(true) })
		defer timer.Stop()
	}
	xsp := root.Child("execute")
	res, err := h.RunProgram(j.Machine, prog)
	execDur := xsp.End()
	if err != nil {
		if stop.Load() && errors.Is(err, core.ErrInterrupted) {
			s.met.Add(metrics.Timeouts, 1)
		}
		if contained(err) {
			s.met.Add(metrics.FaultsContained, 1)
		}
		r.Err = fmt.Errorf("serve: job %q: %w", j.ID, err)
		return r
	}
	r.ExitCode = res.ExitCode
	r.Output = h.Output()
	r.Faulted = res.Faulted
	r.Fault = res.Fault
	r.Cycles = res.Cycles
	r.Insts = res.Insts
	r.Attr = res.Attribution()
	xsp.Set("insts", res.Insts).Set("cycles", res.Cycles)
	tr.Insts = res.Insts
	tr.AppInsts = r.Attr.App
	tr.SandboxInsts = r.Attr.Sandbox
	tr.SchedInsts = r.Attr.Sched
	s.met.Add(metrics.SimCycles, int64(res.Cycles))
	s.met.Add(metrics.SimInsts, int64(res.Insts))
	s.met.AddRun(j.Machine.Arch, res, execDur)
	if res.Faulted {
		s.met.Add(metrics.FaultsContained, 1)
	}
	if j.Post != nil {
		psp := root.Child("post")
		r.Post, err = j.Post(h)
		psp.End()
		if err != nil {
			r.Err = fmt.Errorf("serve: job %q post: %w", j.ID, err)
		}
	}
	return r
}
