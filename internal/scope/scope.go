// Package scope is omniscope: the cluster-wide observability substrate
// — cross-node trace propagation and fleet metrics aggregation.
//
// Propagation: every peer-to-peer HTTP call carries the originating
// request id (X-Omni-Request-Id, forwarded rather than re-minted) and a
// trace-parent header (X-Omni-Trace-Parent) naming the origin's trace.
// The serving side records its own span tree — cache tier probed,
// on-demand translation, verification — in its local trace ring under
// that parent, and returns the span subtree to the caller in a response
// header (X-Omni-Trace-Spans, base64url JSON, size-capped). The origin
// grafts the subtree into its own tree (trace.Span.AttachRemote), so
// GET /v1/trace/{id} on the origin shows one stitched cross-node tree
// with per-node annotations.
//
// Aggregation: GET /v1/cluster/metrics on any node fans out to the
// members with bounded timeouts and merges what comes back — counters
// sum, histograms add bucket-wise (trace.HistSnapshot.Add) with
// quantiles recomputed from the merged buckets, per-peer health merges
// by peer address, and the top-K slowest traces across the fleet are
// kept as exemplars. A node that fails to answer is reported by name
// with its error, never silently dropped from the denominator.
package scope

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

// TraceParentHeader carries the origin's trace context on peer-to-peer
// requests: "<traceID>;<requestID>". The serving node records its own
// spans under this parent so the two rings can be joined after the
// fact even if the response subtree is lost.
const TraceParentHeader = "X-Omni-Trace-Parent"

// TraceSpansHeader returns the serving node's span subtree for the
// request, base64url-encoded JSON of one trace.Span. Responses whose
// subtree would exceed MaxSpansHeaderBytes omit the header — stitching
// is best-effort decoration, never worth failing a fill over.
const TraceSpansHeader = "X-Omni-Trace-Spans"

// MaxSpansHeaderBytes caps the encoded span subtree: big enough for
// any real pipeline tree, small enough that a hostile peer cannot
// bloat responses or the origin's trace ring.
const MaxSpansHeaderBytes = 64 << 10

// Parent is the decoded trace-parent header.
type Parent struct {
	TraceID   string
	RequestID string
}

// EncodeParent renders the trace-parent header value. Empty if there
// is no trace to propagate.
func EncodeParent(traceID, requestID string) string {
	if traceID == "" && requestID == "" {
		return ""
	}
	return traceID + ";" + requestID
}

// ParseParent decodes a trace-parent header value; malformed or empty
// input yields the zero Parent (propagation is optional decoration).
func ParseParent(v string) Parent {
	if v == "" {
		return Parent{}
	}
	tid, rid, _ := strings.Cut(v, ";")
	return Parent{TraceID: tid, RequestID: rid}
}

// EncodeSpans renders a finished span subtree for the response header.
// Subtrees that encode beyond MaxSpansHeaderBytes are refused — the
// caller just omits the header.
func EncodeSpans(sp *trace.Span) (string, error) {
	if sp == nil {
		return "", fmt.Errorf("scope: nil span")
	}
	raw, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	enc := base64.RawURLEncoding.EncodeToString(raw)
	if len(enc) > MaxSpansHeaderBytes {
		return "", fmt.Errorf("scope: span subtree %d bytes exceeds header cap", len(enc))
	}
	return enc, nil
}

// DecodeSpans parses a TraceSpansHeader value back into a span tree.
// The bytes came from a peer: size is checked before decode, and any
// failure returns nil with the error (callers treat a bad subtree as
// an absent one).
func DecodeSpans(v string) (*trace.Span, error) {
	if v == "" {
		return nil, fmt.Errorf("scope: empty spans header")
	}
	if len(v) > MaxSpansHeaderBytes {
		return nil, fmt.Errorf("scope: spans header %d bytes exceeds cap", len(v))
	}
	raw, err := base64.RawURLEncoding.DecodeString(v)
	if err != nil {
		return nil, err
	}
	var sp trace.Span
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Exemplar is one finished trace in summary: a line of a node's
// /v1/trace/recent and /v1/trace/slow listings. Node is added by the
// fleet aggregator and is omitted from a node's own listings.
type Exemplar struct {
	Node       string  `json:"node,omitempty"`
	ID         string  `json:"id"`
	Kind       string  `json:"kind"`
	Target     string  `json:"target,omitempty"`
	Status     string  `json:"status"`
	DurUs      int64   `json:"durUs"`
	Insts      uint64  `json:"insts"`
	SandboxPct float64 `json:"sandboxPct"`
}

// NodeReport is one member's contribution to a fleet aggregation: its
// full metrics snapshot and slow-trace exemplars, or the error that
// kept it out of the merge.
type NodeReport struct {
	Node    string            `json:"node"`
	Err     string            `json:"err,omitempty"`
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	Slow    []Exemplar        `json:"slow,omitempty"`
}

// Fleet is the /v1/cluster/metrics response: per-node reports plus the
// fleet-summed snapshot and the cross-fleet slow-trace exemplars.
type Fleet struct {
	Origin string            `json:"origin"` // the node that ran the fan-out
	Nodes  []NodeReport      `json:"nodes"`
	Fleet  *metrics.Snapshot `json:"fleet,omitempty"` // merged across answering nodes
	Slow   []Exemplar        `json:"slow,omitempty"`  // slowest first, capped
}

// DefaultSlowK caps the fleet exemplar list.
const DefaultSlowK = 16

// MergeFleet builds the fleet view from per-node reports: snapshots of
// every answering node merge via metrics.MergeSnapshots; exemplars are
// node-stamped, pooled, and the slowK slowest kept. Reports are not
// mutated; failed nodes stay in Nodes with their error.
func MergeFleet(origin string, reports []NodeReport, slowK int) Fleet {
	if slowK <= 0 {
		slowK = DefaultSlowK
	}
	out := Fleet{Origin: origin, Nodes: reports}
	var merged *metrics.Snapshot
	for _, nr := range reports {
		if nr.Err != "" || nr.Metrics == nil {
			continue
		}
		if merged == nil {
			m := *nr.Metrics
			merged = &m
		} else {
			m := metrics.MergeSnapshots(*merged, *nr.Metrics)
			merged = &m
		}
		for _, ex := range nr.Slow {
			ex.Node = nr.Node
			out.Slow = append(out.Slow, ex)
		}
	}
	out.Fleet = merged
	sort.SliceStable(out.Slow, func(i, j int) bool { return out.Slow[i].DurUs > out.Slow[j].DurUs })
	if len(out.Slow) > slowK {
		out.Slow = out.Slow[:slowK]
	}
	return out
}
