// Cluster-facing HTTP surface: the /v1/peer/* endpoints a node serves
// to its cluster peers, and the client helpers that speak them. The
// peer protocol is deliberately trust-free in both directions:
//
//   - Module fetch is content-addressed — the receiver re-encodes
//     canonically and checks the hash, so a peer cannot substitute a
//     different module.
//   - Translation fetch ships an OPF envelope binding payload to cache
//     key; the receiver re-runs the SFI verifier before admission
//     (mcache's peer-fill gate), so a peer cannot inject unverified
//     code.
//   - Translation push lands in Cache.AdmitKeyed behind the same
//     verifier gate PLUS an unconditional correspondence check (the
//     program must equal the local retranslation of the module), so
//     replication cannot weaken the contract either — not even with a
//     sandboxed-but-semantically-wrong program.
//
// Trust-free is not authentication-free: every /v1/peer/* request must
// carry the shared cluster secret (X-Omni-Peer-Auth, Config.PeerAuth),
// checked in constant time before any work is done. The peer endpoints
// are enabled only in cluster mode (Config.Peer non-nil) and bypass
// the per-client rate limiter: authenticated peers are a closed,
// configured set, and a peer probe shedding at the limiter would turn
// one client burst into cluster-wide retranslation. An outsider's
// request fails the secret check — one hash compare, cheaper than the
// limiter itself — before touching frame decode or the verifier.

package netserve

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"omniware/internal/mcache"
	"omniware/internal/scope"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// PeerHeader names the requesting cluster member on peer-to-peer
// requests, for logs and per-peer attribution on the serving side.
const PeerHeader = "X-Omni-Peer"

// PeerAuthHeader carries the shared cluster secret on peer-to-peer
// requests; requests without the right value are refused before any
// decoding or verification work.
const PeerAuthHeader = "X-Omni-Peer-Auth"

// peerAuth wraps a peer endpoint behind the shared cluster secret.
// Both sides are hashed before comparison so the check is constant
// time regardless of attacker-chosen length.
func (h *Handler) peerAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		got := sha256.Sum256([]byte(r.Header.Get(PeerAuthHeader)))
		want := sha256.Sum256([]byte(h.cfg.PeerAuth))
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			writeError(w, http.StatusUnauthorized, "peer authentication failed")
			return
		}
		next(w, r)
	}
}

// PeerHooks is what the cluster layer provides to the HTTP handler.
// It is defined here (and implemented by internal/cluster) so netserve
// does not import the cluster package.
type PeerHooks interface {
	// FetchModule asks the cluster for a module blob by content hash,
	// returning the canonical OMW bytes from whichever peer has it,
	// that peer's span subtree for the serve (when returned), the
	// peer's address, and the audit-report digest the peer advertised
	// ("" when it sent none). The caller re-verifies the hash and
	// re-derives the audit; implementations only transport. org is the
	// originating trace/request identity, forwarded on the wire for
	// cross-node stitching.
	FetchModule(hash string, org mcache.PeerOrigin) (blob []byte, remote *trace.Span, peer, auditDigest string, ok bool)
	// Self is this node's advertised address; Members the full static
	// membership (including self) — what the fleet aggregation
	// endpoint fans out over.
	Self() string
	Members() []string
}

// peerServeTrace opens the serving side of a cross-node probe: a local
// trace, recorded in this node's own ring, carrying the origin's
// forwarded request id and trace id as annotations. Its root span is
// what the response's X-Omni-Trace-Spans header ships back.
func (h *Handler) peerServeTrace(kind string, r *http.Request) *trace.Trace {
	tr := trace.New(fmt.Sprintf("peer-%d", h.jobSeq.Add(1)), kind)
	tr.SetRequestID(r.Header.Get(RequestIDHeader))
	if parent := scope.ParseParent(r.Header.Get(scope.TraceParentHeader)); parent.TraceID != "" {
		tr.Root.Set("origin_trace", parent.TraceID)
	}
	if from := r.Header.Get(PeerHeader); from != "" {
		tr.Root.Set("from", from)
	}
	return tr
}

// finishPeerServe closes and records the serving-side trace and, when
// the subtree fits the header cap, attaches it to the response.
func (h *Handler) finishPeerServe(w http.ResponseWriter, tr *trace.Trace, status string) {
	tr.Finish(status)
	h.srv.Traces().Add(tr)
	if enc, err := scope.EncodeSpans(tr.Root); err == nil {
		w.Header().Set(scope.TraceSpansHeader, enc)
	}
}

// handlePeerModule serves the canonical OMW encoding of a registered
// module to a cluster peer.
func (h *Handler) handlePeerModule(w http.ResponseWriter, r *http.Request) {
	tr := h.peerServeTrace("peer_module", r)
	hash := r.PathValue("hash")
	h.mu.Lock()
	ent := h.mods[hash]
	h.mu.Unlock()
	if ent.blob == nil {
		h.finishPeerServe(w, tr, "miss")
		writeError(w, http.StatusNotFound, "module %q not registered here", hash)
		return
	}
	tr.Root.Set("bytes", len(ent.blob))
	h.finishPeerServe(w, tr, "ok")
	// Advertise this node's audit digest when it has derived one; the
	// receiver re-derives and compares rather than trusting it.
	if rep, ok := h.srv.Cache().AuditByHash(hash); ok {
		w.Header().Set(AuditDigestHeader, rep.Digest())
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(ent.blob)
}

// handlePeerTranslation serves one verified translation as an OPF
// frame. The path names the module hash and target for routing and
// sanity; the ?key= query carries the full cache key (module, machine,
// segment shape, options) and is authoritative — but it must agree
// with the path, so a confused client can't file a translation under
// the wrong identity.
//
// Owner fill: when the cache has no entry but the module is registered
// here, the owner translates on demand through the cache's no-peer
// path (TranslateNoPeer — memory, coalescing, disk and local
// translation, but never a recursive peer probe) instead of refusing.
// The ring routes a module's requests to its owners, so the owner
// doing the one translation is exactly the paper's economics; the
// probing node still re-verifies on arrival. A module this node does
// not hold is still a clean 404 — an owner fill never triggers its own
// module fetch, which would turn one probe into a cluster-wide chase.
func (h *Handler) handlePeerTranslation(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	hash := r.PathValue("hash")
	if err := checkPeerKey(key, hash, r.PathValue("target")); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr := h.peerServeTrace("peer_serve", r)
	sp := tr.Root
	pk := sp.Child("cache_peek")
	prog, tier, ok := h.srv.Cache().PeekTier(key)
	pk.End()
	if ok {
		pk.Set("tier", tier)
	} else if mach, si, opt, err := mcache.ParseKey(key); err == nil {
		h.mu.Lock()
		ent := h.mods[hash]
		h.mu.Unlock()
		if ent.mod != nil {
			csp := sp.Child("cache")
			p2, warm, terr := h.srv.Cache().TranslateNoPeer(csp, ent.mod, mach, si, opt)
			h.srv.Metrics().Observe(metrics.StageTranslate, csp.End())
			if vsp := csp.Find("verify"); vsp != nil {
				h.srv.Metrics().Observe(metrics.StageVerify, vsp.Dur())
			}
			if terr != nil {
				h.cfg.Logf("netserve: owner fill for %q failed: %v", key, terr)
			} else {
				prog, ok = p2, true
				if !warm {
					h.srv.Metrics().Add(metrics.Translations, 1)
				}
			}
		}
	}
	if !ok {
		h.finishPeerServe(w, tr, "miss")
		writeError(w, http.StatusNotFound, "no translation for key here")
		return
	}
	payload, err := wire.EncodeProgram(prog)
	if err != nil {
		h.finishPeerServe(w, tr, "error")
		writeError(w, http.StatusInternalServerError, "encoding translation: %v", err)
		return
	}
	frame, err := wire.EncodePeerFrame(key, payload)
	if err != nil {
		h.finishPeerServe(w, tr, "error")
		writeError(w, http.StatusInternalServerError, "framing translation: %v", err)
		return
	}
	h.finishPeerServe(w, tr, "ok")
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(frame)
}

// handlePeerPush accepts a hot-entry replication push: an OPF frame
// whose program is admitted through the cache's verifier gate AND the
// retranslation correspondence check — the module must be available
// here (registered, or peer-fetched by content address) so the push
// can be proved to be the translation of the module it claims, not
// merely a contained program. A push for a key this node already holds
// is acknowledged without re-admitting: an existing verified entry is
// never replaced by a push. A refusal is the pusher's problem to
// count; the receiving cache's counters record it locally too.
func (h *Handler) handlePeerPush(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxPeerFrameBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading frame: %v", err)
		return
	}
	key, payload, err := wire.DecodePeerFrame(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding frame: %v", err)
		return
	}
	hash := r.PathValue("hash")
	if err := checkPeerKey(key, hash, r.PathValue("target")); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, ok := h.srv.Cache().Peek(key); ok {
		writeJSON(w, http.StatusOK, map[string]bool{"admitted": true})
		return
	}
	prog, err := wire.DecodeProgram(payload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding program: %v", err)
		return
	}
	h.mu.Lock()
	ent := h.mods[hash]
	h.mu.Unlock()
	var fetchErr error
	if ent.mod == nil && h.cfg.Peer != nil {
		ent, _, _, fetchErr = h.fetchModuleViaPeers(hash,
			mcache.PeerOrigin{RequestID: r.Header.Get(RequestIDHeader)})
	}
	if ent.mod == nil {
		if fetchErr != nil {
			writeError(w, http.StatusUnprocessableEntity, "%v", fetchErr)
			return
		}
		writeError(w, http.StatusUnprocessableEntity,
			"module %s not available here; push correspondence cannot be checked", hash)
		return
	}
	mach, si, opt, err := mcache.ParseKey(key)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	retranslate := func() (*target.Program, error) {
		return translate.Translate(ent.mod, mach, si, opt)
	}
	if err := h.srv.Cache().AdmitKeyed(key, prog, retranslate); err != nil {
		h.cfg.Logf("netserve: push from %s refused: %v", r.Header.Get(PeerHeader), err)
		writeError(w, http.StatusUnprocessableEntity, "admission refused: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"admitted": true})
}

// checkPeerKey verifies that a full cache key agrees with the
// hash/target pair in a peer URL path.
func checkPeerKey(key, hash, targetName string) error {
	if key == "" {
		return fmt.Errorf("missing key parameter")
	}
	kh, err := mcache.KeyModuleHash(key)
	if err != nil {
		return err
	}
	if kh != hash {
		return fmt.Errorf("key names module %s, path says %s", kh, hash)
	}
	mach, _, _, err := mcache.ParseKey(key)
	if err != nil {
		return err
	}
	if mach.Name != targetName {
		return fmt.Errorf("key names target %s, path says %s", mach.Name, targetName)
	}
	return nil
}

// fetchModuleViaPeers pulls a module the cluster knows but this node
// does not and sends it through admit under the name it was asked for.
// Bytes that are undecodable, or whose canonical re-encoding hashes to
// another name, are discarded as a miss; a peer cannot plant a module
// under a false identity. A non-nil error is the audit gate refusing
// the module: peer fill is just upload by another road, so a module the
// gate would have rejected at upload is rejected on arrival too. The
// supplying peer's span subtree and address come back alongside so the
// caller can stitch the fetch into its trace.
func (h *Handler) fetchModuleViaPeers(hash string, org mcache.PeerOrigin) (modEntry, *trace.Span, string, error) {
	blob, remote, peer, peerDigest, ok := h.cfg.Peer.FetchModule(hash, org)
	if !ok {
		return modEntry{}, nil, "", nil
	}
	adm, ref := h.admit(blob, hash, "peer-filled module")
	if ref != nil {
		h.cfg.Logf("netserve: peer module fetch for %s from %s refused: %v", hash, peer, ref.err)
		if ref.status == http.StatusUnprocessableEntity {
			return modEntry{}, nil, "", ref.err
		}
		return modEntry{}, nil, "", nil
	}
	if rep := adm.out.rep; rep != nil && peerDigest != "" && peerDigest != rep.Digest() {
		// The peer's advertised digest disagrees with the local
		// derivation. The local report is the authority (it gated the
		// admission above); the divergence is worth an operator's eye —
		// it means the fleet's analyzers disagree, or the peer lied.
		h.cfg.Logf("netserve: peer %s advertised audit digest %s for %s; local derivation is %s",
			peer, peerDigest, hash, rep.Digest())
	}
	return adm.ent, remote, peer, nil
}

// PeerModule fetches a module's canonical OMW bytes from a peer,
// forwarding the originating trace/request identity and returning the
// peer's span subtree when it sent one plus the audit digest it
// advertised ("" when none). The caller owns hash verification and
// audit re-derivation.
func (c *Client) PeerModule(hash, from string, org mcache.PeerOrigin) ([]byte, *trace.Span, string, error) {
	body, remote, hdr, err := c.rawGet(c.Base+"/v1/peer/module/"+url.PathEscape(hash), from, org, int64(wire.MaxModuleBytes))
	if err != nil {
		return nil, nil, "", err
	}
	return body, remote, hdr.Get(AuditDigestHeader), nil
}

// PeerTranslation fetches one translation as a raw OPF frame from a
// peer, forwarding the originating trace/request identity. The caller
// decodes and — critically — re-verifies it; the returned span subtree
// is the serving node's own record of the fill.
func (c *Client) PeerTranslation(hash, targetName, key, from string, org mcache.PeerOrigin) ([]byte, *trace.Span, error) {
	u := c.Base + "/v1/peer/translation/" + url.PathEscape(hash) + "/" + url.PathEscape(targetName) +
		"?key=" + url.QueryEscape(key)
	body, remote, _, err := c.rawGet(u, from, org, wire.MaxPeerFrameBytes)
	return body, remote, err
}

// PushPeerTranslation replicates one translation to a peer as an OPF
// frame; the receiver verifies before admission.
func (c *Client) PushPeerTranslation(hash, targetName, key string, payload []byte, from string) error {
	frame, err := wire.EncodePeerFrame(key, payload)
	if err != nil {
		return err
	}
	u := c.Base + "/v1/peer/translation/" + url.PathEscape(hash) + "/" + url.PathEscape(targetName)
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(PeerHeader, from)
	req.Header.Set(PeerAuthHeader, c.PeerAuth)
	return c.do(req, nil)
}

// rawGet fetches an octet-stream body, converting non-2xx into
// *StatusError like do. The origin's request id is forwarded (so the
// remote error body names it, not a freshly minted remote id) along
// with the trace-parent header; the serving node's span subtree, when
// present and well-formed, is decoded from the response, whose full
// header set rides back for callers that read more (audit digest).
func (c *Client) rawGet(u, from string, org mcache.PeerOrigin, limit int64) ([]byte, *trace.Span, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if from != "" {
		req.Header.Set(PeerHeader, from)
	}
	req.Header.Set(PeerAuthHeader, c.PeerAuth)
	if org.RequestID != "" {
		req.Header.Set(RequestIDHeader, org.RequestID)
	}
	if p := scope.EncodeParent(org.TraceID, org.RequestID); p != "" {
		req.Header.Set(scope.TraceParentHeader, p)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, nil, statusErrorFrom(resp, body)
	}
	if int64(len(body)) > limit {
		return nil, nil, nil, fmt.Errorf("netserve: peer response exceeds %d bytes", limit)
	}
	remote, _ := scope.DecodeSpans(resp.Header.Get(scope.TraceSpansHeader))
	return body, remote, resp.Header, nil
}
