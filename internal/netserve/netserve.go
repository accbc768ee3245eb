// Package netserve is the network front door of the Omniware host: an
// HTTP layer over the internal/serve worker pool that makes the
// system an actual mobile-code *service* — modules arrive over the
// wire in the canonical OMW encoding, execution requests name them by
// content hash, and results stream back as JSON.
//
// The API surface:
//
//	POST /v1/modules        upload an OMW blob; returns its content hash
//	POST /v1/exec           run an uploaded module on a target machine
//	GET  /v1/metrics        server + cache counters; JSON by default, the
//	                        Prometheus text format when Accept asks for
//	                        "text/plain; version=0.0.4"
//	GET  /v1/trace/recent   summaries of recent finished job traces
//	GET  /v1/trace/slow     the K slowest traces this node ever served
//	GET  /v1/trace/{id}     one job's full span tree by job ID (stitched
//	                        across nodes when the job peer-filled)
//	GET  /v1/cluster/metrics fleet fan-out: per-node + merged counters,
//	                        histograms, peer health and slow exemplars
//	GET  /healthz           liveness ("ok", or "draining" with 503)
//
// Every response — success or refusal — carries an X-Omni-Request-Id
// header, so a 429 or 400 can be correlated with server logs even
// though it never produced a job.
//
// Overload policy, in order of the defenses a request meets:
//
//  1. Per-client token-bucket rate limiting (429 + Retry-After).
//  2. A bounded admission queue (serve.Server's): when workers are
//     saturated and the queue is full, TrySubmit refuses immediately
//     and the request gets 429 + Retry-After within milliseconds —
//     the server sheds load instead of queueing unboundedly.
//  3. Per-request deadlines, capped by the server, mapped onto the
//     simulator interrupt hook so a runaway module burns worker time
//     bounded by its deadline, not by its own choosing.
//
// Draining: SetDraining flips /healthz to 503 (so load balancers stop
// routing here) and refuses new exec/upload work with 503, while
// requests already admitted keep their workers until they finish —
// the graceful half of SIGTERM handling; the process owner then
// closes the HTTP server and the pool.
package netserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/ovm"
	"omniware/internal/serve"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// RequestIDHeader is set on every response, including refusals, so
// clients can name the request when reporting a failure.
const RequestIDHeader = "X-Omni-Request-Id"

// Defaults for Config zero values.
const (
	DefaultMaxModules      = mcache.AuditMemoCap // 256: the audit memo is sized to hold a default registry's reports
	DefaultMaxModuleBytes  = 16 << 20
	DefaultRate            = 50  // requests/second/client
	DefaultBurst           = 100 // bucket capacity
	DefaultDeadline        = 10 * time.Second
	DefaultMaxDeadline     = 60 * time.Second
	DefaultResultWait      = 5 * time.Minute // hard cap on waiting for a result
	maxExecBodyBytes       = 1 << 20
	retryAfterQueueSeconds = 1
)

// Config sizes a Handler. Zero values select the defaults above.
type Config struct {
	Server         *serve.Server // required: the worker pool
	MaxModules     int           // uploaded-module registry cap (oldest registration evicted beyond it)
	MaxModuleBytes int64         // upload size limit
	Rate           float64       // per-client token refill, requests/second
	Burst          float64       // per-client bucket size
	Deadline       time.Duration // default per-request deadline
	MaxDeadline    time.Duration // cap on client-requested deadlines
	Logf           func(format string, args ...any)
	// Audit is the admission-time static-analysis gate (see audit.go).
	// The zero value leaves gating off; GET /v1/audit/{hash} works
	// regardless.
	Audit AuditConfig
	// Peer, when non-nil, enables cluster mode: the /v1/peer/*
	// endpoints (serving this node's modules and verified translations
	// to its peers) and the exec-miss module fetch through the hooks.
	Peer PeerHooks
	// PeerAuth is the shared cluster secret every /v1/peer/* request
	// must present in the X-Omni-Peer-Auth header. Required whenever
	// Peer is set: the peer surface accepts replication pushes and
	// bypasses the per-client rate limiter, so it is never exposed
	// unauthenticated.
	PeerAuth string
}

// Handler is the HTTP layer. Create with New; it implements
// http.Handler.
type Handler struct {
	cfg      Config
	srv      *serve.Server
	mux      *http.ServeMux
	lim      *limiter
	draining atomic.Bool
	jobSeq   atomic.Uint64
	reqSeq   atomic.Uint64

	mu       sync.Mutex
	mods     map[string]modEntry
	modOrder []string // insertion order for registry eviction
}

// modEntry is one registered module plus its canonical encoding (what
// the peer endpoint serves — the bytes whose hash is the identity) and
// the wire-decode cost paid for it, which exec jobs inherit as the
// "decode" stage of their trace.
type modEntry struct {
	mod    *ovm.Module
	blob   []byte
	decode time.Duration
	audit  time.Duration // admission-audit cost, backdated into exec traces
}

// New builds a Handler over cfg.Server.
func New(cfg Config) (*Handler, error) {
	if cfg.Server == nil {
		return nil, errors.New("netserve: Config.Server is required")
	}
	if cfg.Peer != nil && cfg.PeerAuth == "" {
		return nil, errors.New("netserve: cluster mode requires Config.PeerAuth (the shared peer secret)")
	}
	if err := cfg.Audit.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxModules <= 0 {
		cfg.MaxModules = DefaultMaxModules
	}
	if cfg.MaxModuleBytes <= 0 {
		cfg.MaxModuleBytes = DefaultMaxModuleBytes
	}
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = DefaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = DefaultMaxDeadline
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	h := &Handler{
		cfg:  cfg,
		srv:  cfg.Server,
		lim:  newLimiter(cfg.Rate, cfg.Burst),
		mods: map[string]modEntry{},
	}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("POST /v1/modules", h.handleUpload)
	h.mux.HandleFunc("POST /v1/exec", h.handleExec)
	h.mux.HandleFunc("GET /v1/audit/{hash}", h.handleAuditGet)
	h.mux.HandleFunc("GET /v1/metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /v1/trace/recent", h.handleTraceRecent)
	h.mux.HandleFunc("GET /v1/trace/slow", h.handleTraceSlow)
	h.mux.HandleFunc("GET /v1/trace/{id}", h.handleTraceGet)
	h.mux.HandleFunc("GET /v1/cluster/metrics", h.handleClusterMetrics)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	if cfg.Peer != nil {
		h.mux.HandleFunc("GET /v1/peer/module/{hash}", h.peerAuth(h.handlePeerModule))
		h.mux.HandleFunc("GET /v1/peer/translation/{hash}/{target}", h.peerAuth(h.handlePeerTranslation))
		h.mux.HandleFunc("POST /v1/peer/translation/{hash}/{target}", h.peerAuth(h.handlePeerPush))
	}
	return h, nil
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Stamp the request ID before any handler can write: refusals (429,
	// 400, 5xx) carry it just like successes. Peer-to-peer requests
	// forward the ORIGINATING request's id instead of minting a fresh
	// one, so a remote failure names a request that exists — on the
	// origin node, where the operator is looking.
	rid := ""
	if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
		rid = r.Header.Get(RequestIDHeader)
	}
	if rid == "" {
		rid = fmt.Sprintf("r%d", h.reqSeq.Add(1))
	}
	w.Header().Set(RequestIDHeader, rid)
	h.mux.ServeHTTP(w, r)
}

// SetDraining flips the handler into (or out of) drain mode: health
// checks fail so routers stop sending traffic, and new uploads/execs
// are refused with 503 while admitted work finishes.
func (h *Handler) SetDraining(v bool) { h.draining.Store(v) }

// Draining reports drain mode.
func (h *Handler) Draining() bool { return h.draining.Load() }

// apiError is the uniform JSON error body. RequestID echoes the
// response's X-Omni-Request-Id — on peer endpoints that is the
// origin's forwarded id, so the body a cluster client reads back names
// a request the origin can actually find in its own logs.
type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(RequestIDHeader),
	})
}

// clientKey identifies a client for rate limiting: the remote host
// (without port), so reconnecting does not reset the bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// gate applies the request-path defenses shared by upload and exec:
// drain mode, then the per-client rate limit. It reports false after
// writing the refusal.
func (h *Handler) gate(w http.ResponseWriter, r *http.Request) bool {
	if h.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if retry, ok := h.lim.allow(clientKey(r), time.Now()); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return false
	}
	return true
}

// UploadResponse describes an accepted module.
type UploadResponse struct {
	Hash     string `json:"hash"`
	Insts    int    `json:"insts"`
	DataLen  int    `json:"dataLen"`
	BSSSize  uint32 `json:"bssSize"`
	Entry    int32  `json:"entry"`
	Replaced bool   `json:"replaced"` // an identical module was already registered
	// Audit is the admission audit's summary — capability manifest,
	// stack proof, report digest — present when the gate analyzed the
	// module (warn or enforce mode).
	Audit *AuditSummary `json:"audit,omitempty"`
}

func (h *Handler) handleUpload(w http.ResponseWriter, r *http.Request) {
	if !h.gate(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.cfg.MaxModuleBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading module: %v", err)
		return
	}
	adm, ref := h.admit(body, "", "module")
	if ref != nil {
		writeError(w, ref.status, "%v", ref.err)
		return
	}
	writeJSON(w, http.StatusOK, adm.response())
}

// admission is one module that came through admit and is now
// registered.
type admission struct {
	hash    string
	ent     modEntry
	out     auditOutcome
	existed bool // an identical module was already registered
}

func (a admission) response() UploadResponse {
	mod := a.ent.mod
	return UploadResponse{
		Hash:     a.hash,
		Insts:    len(mod.Text),
		DataLen:  len(mod.Data),
		BSSSize:  mod.BSSSize,
		Entry:    mod.Entry,
		Replaced: a.existed,
		Audit:    a.out.summary(),
	}
}

// refusal is why admit turned a module away: the HTTP status a front
// door answers with (400 for bytes that are not the module they should
// be, 422 for the audit gate), and the reason.
type refusal struct {
	status int
	err    error
}

// admit is the one way a module enters the registry, by either road its
// bytes arrive — upload, or peer fill on an exec miss: canonical decode
// (every attempt lands in the StageDecode histogram, failed or not),
// the content-address check when the road names the hash it expects
// (want; "" when the bytes name themselves), the audit gate with its
// enforce-mode refusal, then register. what names the module's kind in
// logs and error text.
func (h *Handler) admit(blob []byte, want, what string) (admission, *refusal) {
	start := time.Now()
	mod, canon, hash, err := decodeCanonical(blob)
	decodeDur := time.Since(start)
	h.srv.Metrics().Observe(metrics.StageDecode, decodeDur)
	if err == nil && want != "" && hash != want {
		err = fmt.Errorf("content hash is %s, want %s", hash, want)
	}
	if err != nil {
		return admission{}, &refusal{http.StatusBadRequest, err}
	}
	out, err := h.runAudit(mod, hash, what+" "+hash)
	if err == nil && out.rejected {
		err = fmt.Errorf("audit rejected %s %s: %s", what, hash, violationText(out.violations))
	}
	if err != nil {
		return admission{}, &refusal{http.StatusUnprocessableEntity, err}
	}
	adm := admission{hash: hash, out: out,
		ent: modEntry{mod: mod, blob: canon, decode: decodeDur, audit: out.dur}}
	adm.existed = h.register(adm.ent, hash)
	return adm, nil
}

// decodeCanonical decodes an OMW blob strictly and returns the module
// together with its canonical re-encoding and content hash. Hashing
// the re-encoding, not the received bytes: the decoder is strict
// enough that they should be identical, but the canonical form is the
// identity the cache keys on.
func decodeCanonical(body []byte) (*ovm.Module, []byte, string, error) {
	mod, err := wire.DecodeModule(body)
	if err != nil {
		return nil, nil, "", fmt.Errorf("decoding module: %w", err)
	}
	blob, err := wire.EncodeModule(mod)
	if err != nil {
		return nil, nil, "", fmt.Errorf("re-encoding module: %w", err)
	}
	return mod, blob, wire.Hash(blob), nil
}

// register installs one module in the registry (FIFO-evicting past the
// cap) and reports whether an identical module was already present.
func (h *Handler) register(ent modEntry, hash string) (existed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, existed = h.mods[hash]; existed {
		return true
	}
	h.mods[hash] = ent
	h.modOrder = append(h.modOrder, hash)
	for len(h.modOrder) > h.cfg.MaxModules {
		evict := h.modOrder[0]
		h.modOrder = h.modOrder[1:]
		delete(h.mods, evict)
	}
	return false
}

// ExecRequest asks for one run of an uploaded module.
type ExecRequest struct {
	Module     string `json:"module"`     // content hash from upload
	Target     string `json:"target"`     // mips | sparc | ppc | x86
	SFI        *bool  `json:"sfi"`        // default true
	MaxSteps   uint64 `json:"maxSteps"`   // instruction budget (0 = core default)
	DeadlineMs int    `json:"deadlineMs"` // wall-clock deadline (0 = server default)
	Heap       uint32 `json:"heap"`       // heap size (0 = default)
	Stack      uint32 `json:"stack"`      // stack size (0 = default)
	// Check additionally runs the module on the OmniVM interpreter
	// and reports parity — the differential-testing hook CI uses.
	Check bool `json:"check"`
	// Trace echoes the job's full span tree in the response (it is
	// also retrievable later from GET /v1/trace/{id}).
	Trace bool `json:"trace"`
}

// ExecResponse is one run's outcome.
type ExecResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // ok | fault(contained) | error
	Exit   int32  `json:"exit"`
	Output string `json:"output"`
	Fault  string `json:"fault,omitempty"`
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`
	Cached bool   `json:"cached"`
	Err    string `json:"err,omitempty"`
	// Parity is present only when the request set Check: true when
	// the translated run matched the interpreter (same exit code and
	// output, or both faulted).
	Parity *bool `json:"parity,omitempty"`
	// QueueWaitUs/RunUs split the job's server wall-clock: time spent
	// admitted-but-queued vs. dequeue-to-completion.
	QueueWaitUs int64 `json:"queueWaitUs"`
	RunUs       int64 `json:"runUs"`
	// Trace is the job's span tree, present when the request asked.
	Trace *trace.Trace `json:"trace,omitempty"`
}

func (h *Handler) handleExec(w http.ResponseWriter, r *http.Request) {
	if !h.gate(w, r) {
		return
	}
	var req ExecRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxExecBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	mach := target.ByName(req.Target)
	if mach == nil {
		writeError(w, http.StatusBadRequest, "unknown target %q", req.Target)
		return
	}

	// Dash-separated: job IDs double as /v1/trace/{id} path segments.
	// Minted before the module fetch so a cluster fetch can carry the
	// job's trace identity to the serving peer.
	id := fmt.Sprintf("exec-%d-%s-%s", h.jobSeq.Add(1), req.Module[:min(8, len(req.Module))], mach.Name)
	rid := w.Header().Get(RequestIDHeader)

	h.mu.Lock()
	ent := h.mods[req.Module]
	h.mu.Unlock()
	var mfDur time.Duration
	var mfRemote *trace.Span
	var mfPeer string
	if ent.mod == nil && h.cfg.Peer != nil {
		// Cluster mode: the module may have been uploaded through
		// another member. Fetching it by content address is trust-free
		// — the hash of the canonical re-encoding must match the name —
		// and the audit gate applies on arrival, exactly as it would
		// have at upload: a cold node re-derives the audit itself.
		fetchStart := time.Now()
		var aerr error
		ent, mfRemote, mfPeer, aerr = h.fetchModuleViaPeers(req.Module, mcache.PeerOrigin{TraceID: id, RequestID: rid})
		mfDur = time.Since(fetchStart)
		if aerr != nil {
			writeError(w, http.StatusUnprocessableEntity, "%v", aerr)
			return
		}
	}
	if ent.mod == nil {
		writeError(w, http.StatusNotFound, "module %q not uploaded", req.Module)
		return
	}
	mod := ent.mod
	deadline := h.cfg.Deadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > h.cfg.MaxDeadline {
		deadline = h.cfg.MaxDeadline
	}
	sfi := req.SFI == nil || *req.SFI

	job := serve.Job{
		ID:                id,
		Mod:               mod,
		Machine:           mach,
		Opt:               translate.Paper(sfi),
		Heap:              req.Heap,
		Stack:             req.Stack,
		MaxSteps:          req.MaxSteps,
		Timeout:           deadline,
		Decode:            ent.decode,
		Audit:             ent.audit,
		RequestID:         rid,
		ModuleFetch:       mfDur,
		ModuleFetchRemote: mfRemote,
		ModuleFetchPeer:   mfPeer,
	}
	ch, ok := h.srv.TrySubmit(job)
	if !ok {
		// Workers saturated and the admission queue full (or the pool
		// is closing): shed the request now, cheaply, instead of
		// parking it. The client owns the retry.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterQueueSeconds))
		writeError(w, http.StatusTooManyRequests, "admission queue full")
		return
	}

	var res serve.Result
	select {
	case res = <-ch:
	case <-time.After(deadline + DefaultResultWait):
		// The deadline interrupt should have fired long ago; this is a
		// backstop against a stuck worker, not a normal path.
		writeError(w, http.StatusInternalServerError, "job %s result overdue", id)
		return
	}

	resp := ExecResponse{
		ID:          res.ID,
		Exit:        res.ExitCode,
		Output:      res.Output,
		Fault:       res.Fault,
		Insts:       res.Insts,
		Cycles:      res.Cycles,
		Cached:      res.Cached,
		QueueWaitUs: res.QueueWait.Microseconds(),
		RunUs:       res.Run.Microseconds(),
	}
	if req.Trace {
		resp.Trace = res.Trace
	}
	switch {
	case res.Err != nil:
		resp.Status = "error"
		resp.Err = res.Err.Error()
	case res.Faulted:
		resp.Status = "fault(contained)"
	default:
		resp.Status = "ok"
	}
	if req.Check {
		parity := h.checkParity(mod, req, res)
		resp.Parity = &parity
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkParity runs the module on the OmniVM interpreter — the
// semantic reference — under the same budgets and compares outcomes.
// A faulting reference matches a faulting run; exit codes and output
// must agree otherwise.
func (h *Handler) checkParity(mod *ovm.Module, req ExecRequest, res serve.Result) bool {
	hst, err := core.NewHost(mod, core.RunConfig{
		Heap: req.Heap, Stack: req.Stack, MaxSteps: req.MaxSteps,
	})
	if err != nil {
		return false
	}
	ref, err := hst.RunInterp()
	if err != nil || res.Err != nil {
		// Job-level errors (budget, deadline) have no parity claim.
		return false
	}
	if ref.Faulted || res.Faulted {
		return ref.Faulted && res.Faulted
	}
	return res.ExitCode == ref.ExitCode && res.Output == hst.Output()
}

// PromContentType is the Content-Type of the Prometheus text
// exposition format this server speaks.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsProm reports whether the Accept header asks for the Prometheus
// text exposition format: any listed media range of text/plain (or
// */*+version) carrying version=0.0.4, the way Prometheus scrapers
// negotiate.
func wantsProm(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ";")
		mediaType := strings.TrimSpace(fields[0])
		if mediaType != "text/plain" {
			continue
		}
		for _, p := range fields[1:] {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok &&
				strings.TrimSpace(k) == "version" && strings.TrimSpace(v) == "0.0.4" {
				return true
			}
		}
	}
	return false
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := h.srv.Snapshot()
	if wantsProm(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", PromContentType)
		_, _ = io.WriteString(w, snap.Prom())
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// TraceSummary is one line of the recent-trace listing.
type TraceSummary struct {
	ID         string  `json:"id"`
	Kind       string  `json:"kind"`
	Target     string  `json:"target,omitempty"`
	Status     string  `json:"status"`
	DurUs      int64   `json:"durUs"`
	Insts      uint64  `json:"insts"`
	SandboxPct float64 `json:"sandboxPct"`
}

func summarize(tr *trace.Trace) TraceSummary {
	return TraceSummary{
		ID:         tr.ID,
		Kind:       tr.Kind,
		Target:     tr.Target,
		Status:     tr.Status,
		DurUs:      tr.Duration().Microseconds(),
		Insts:      tr.Insts,
		SandboxPct: tr.SandboxPct(),
	}
}

func (h *Handler) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		n = v
	}
	recent := h.srv.Traces().Recent(n)
	out := make([]TraceSummary, 0, len(recent))
	for _, tr := range recent {
		out = append(out, summarize(tr))
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *Handler) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := h.srv.Traces().Get(id)
	if tr == nil {
		// A slow exemplar can outlive the recency ring; still servable.
		for _, s := range h.srv.Slow().List() {
			if s.ID == id {
				tr = s
				break
			}
		}
	}
	if tr == nil {
		writeError(w, http.StatusNotFound, "no trace for job %q (evicted or never run)", id)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
