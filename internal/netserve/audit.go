// Admission-time audit gating: every module entering the registry —
// uploaded, or peer-filled on an exec miss — passes through the
// static-analysis pipeline (internal/audit) before it is registered,
// and the configured policy decides what a violation means:
//
//	off      analysis only on demand (GET /v1/audit/{hash}); no gate
//	warn     analyze at admission, log + count violations, admit anyway
//	enforce  analyze at admission, refuse violating modules with 422
//
// The gate sits in front of register() inside Handler.admit, the one
// function both roads go through, so a module the policy refuses
// is never servable from this node — including the peer-fill road,
// where a cold node re-derives the audit itself rather than trusting
// the digest the supplying peer advertises. The report itself is
// memoized and persisted by mcache (Cache.Audit) under the same
// verified-on-arrival discipline as translations.
package netserve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"omniware/internal/audit"
	"omniware/internal/ovm"
	"omniware/internal/serve/metrics"
)

// Audit gate modes for AuditConfig.Mode. The zero value selects
// AuditOff.
const (
	AuditOff     = "off"
	AuditWarn    = "warn"
	AuditEnforce = "enforce"
)

// AuditDigestHeader carries the serving node's audit-report digest on
// peer module responses. It is advisory: the receiver re-derives the
// report and compares, logging a divergence — admission is always
// decided by the local derivation, never by the header.
const AuditDigestHeader = "X-Omni-Audit-Digest"

// AuditConfig is the admission-gate policy for Config.Audit.
type AuditConfig struct {
	// Mode is off, warn or enforce ("" = off).
	Mode string
	// MaxStackBytes, when > 0, caps the proven worst-case stack depth;
	// unbounded stacks violate too. MaxCostCycles, when > 0, caps the
	// whole-module static cycle bound on every target.
	MaxStackBytes int64
	MaxCostCycles uint64
	// Capabilities, when non-nil, is the allow-list of hostapi entry
	// points a module may reach.
	Capabilities []string
}

func (a AuditConfig) enabled() bool { return a.Mode == AuditWarn || a.Mode == AuditEnforce }

func (a AuditConfig) validate() error {
	switch a.Mode {
	case "", AuditOff, AuditWarn, AuditEnforce:
		return nil
	}
	return fmt.Errorf("netserve: unknown audit mode %q (want off, warn or enforce)", a.Mode)
}

func (a AuditConfig) limits() audit.Limits {
	return audit.Limits{
		MaxStackBytes: a.MaxStackBytes,
		MaxCostCycles: a.MaxCostCycles,
		Capabilities:  a.Capabilities,
	}
}

// AuditSummary is the slice of the audit report an upload response
// carries: the capability manifest, the stack proof, and the digest
// naming the full report (retrievable from GET /v1/audit/{hash}).
// Warnings lists violations the warn-mode gate let through.
type AuditSummary struct {
	Digest       string   `json:"digest"`
	Capabilities []string `json:"capabilities"`
	StackBounded bool     `json:"stackBounded"`
	StackBytes   int64    `json:"stackBytes"` // valid when StackBounded
	Warnings     []string `json:"warnings,omitempty"`
}

// auditOutcome is one module's trip through the admission gate.
type auditOutcome struct {
	rep        *audit.Report
	dur        time.Duration
	violations []audit.Violation
	rejected   bool // enforce mode refused the module
}

func (o auditOutcome) summary() *AuditSummary {
	if o.rep == nil {
		return nil
	}
	s := &AuditSummary{
		Digest:       o.rep.Digest(),
		Capabilities: o.rep.Capabilities,
		StackBounded: o.rep.Stack.Bounded,
		StackBytes:   o.rep.Stack.Bytes,
	}
	for _, v := range o.violations {
		s.Warnings = append(s.Warnings, v.Reason+": "+v.Detail)
	}
	return s
}

// violationText renders violations for an error body or log line. The
// details carry the specifics a client needs to act — the named
// recursion cycle, the proven stack bound vs. the cap, the offending
// capability.
func violationText(vs []audit.Violation) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Reason + ": " + v.Detail
	}
	return strings.Join(parts, "; ")
}

// runAudit sends one decoded module through the admission audit and
// applies the configured policy. Analysis cost lands in the Audit
// stage histogram; outcomes land in the pass/warn/reject counters by
// reason. what names the module in logs and error bodies. A non-nil
// error is an analysis failure (not a policy verdict) and refuses the
// module in every mode but off.
func (h *Handler) runAudit(mod *ovm.Module, hash, what string) (auditOutcome, error) {
	var out auditOutcome
	if !h.cfg.Audit.enabled() {
		return out, nil
	}
	met := h.srv.Metrics()
	start := time.Now()
	rep, err := h.srv.Cache().Audit(mod, hash)
	out.dur = time.Since(start)
	met.Observe(metrics.StageAudit, out.dur)
	if err != nil {
		return out, fmt.Errorf("auditing %s: %w", what, err)
	}
	out.rep = rep
	out.violations = rep.Violations(h.cfg.Audit.limits())
	if len(out.violations) == 0 {
		met.Add(metrics.AuditPass, 1)
		return out, nil
	}
	if h.cfg.Audit.Mode == AuditEnforce {
		out.rejected = true
		for _, v := range out.violations {
			met.AuditReject(v.Reason)
		}
		return out, nil
	}
	for _, v := range out.violations {
		met.AuditWarn(v.Reason)
		h.cfg.Logf("netserve: audit warning for %s: %s: %s", what, v.Reason, v.Detail)
	}
	return out, nil
}

// handleAuditGet serves the full audit report for an uploaded module.
// The report is derived on demand when the gate is off (or predates
// the module), so the endpoint works in every mode — but only for
// modules this node actually holds: a report is only served alongside
// the module it describes.
func (h *Handler) handleAuditGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if rep, ok := h.srv.Cache().AuditByHash(hash); ok {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	h.mu.Lock()
	ent := h.mods[hash]
	h.mu.Unlock()
	if ent.mod == nil {
		writeError(w, http.StatusNotFound, "module %q not uploaded", hash)
		return
	}
	rep, err := h.srv.Cache().Audit(ent.mod, hash)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "auditing module %s: %v", hash, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// Audit fetches the full static-analysis report for an uploaded
// module by content hash.
func (c *Client) Audit(hash string) (*audit.Report, error) {
	return get[audit.Report](c, "/v1/audit/"+hash)
}
