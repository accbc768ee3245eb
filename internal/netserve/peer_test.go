package netserve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// fakeHooks is a map-backed PeerHooks: what the cluster layer would
// fetch from peers, minus the network.
type fakeHooks struct {
	mods map[string][]byte
}

func (f *fakeHooks) FetchModule(hash string, org mcache.PeerOrigin) ([]byte, *trace.Span, string, string, bool) {
	b, ok := f.mods[hash]
	return b, nil, "fake-peer", "", ok
}

func (f *fakeHooks) Self() string      { return "fake-self" }
func (f *fakeHooks) Members() []string { return nil }

// noOrg is the empty peer origin used where the test is not about
// trace propagation.
var noOrg mcache.PeerOrigin

// execKey is the cache key a default /v1/exec of blob on targetName
// files its translation under — the identity a real peer would probe.
func execKey(t *testing.T, blob []byte, targetName string) string {
	t.Helper()
	mod, err := wire.DecodeModule(blob)
	if err != nil {
		t.Fatal(err)
	}
	return mcache.Key(mod, target.ByName(targetName), core.SegInfoFor(mod, core.RunConfig{}), translate.Paper(true))
}

// The peer read endpoints: module by content address, translation as
// an OPF frame bound to its full cache key, both disabled outside
// cluster mode.
func TestPeerEndpoints(t *testing.T) {
	clSolo, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	if _, _, _, err := clSolo.PeerModule("deadbeef", "test", noOrg); err == nil {
		t.Fatal("peer endpoint reachable outside cluster mode")
	}

	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{Peer: &fakeHooks{}})
	blob := buildBlob(t, `int main(void){ return 9; }`)
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := cl.PeerModule(up.Hash, "test", noOrg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Error("peer module fetch returned different bytes")
	}
	if _, _, _, err := cl.PeerModule("0000", "test", noOrg); err == nil {
		t.Error("unknown module served")
	}

	// An exec warms the cache, so the translation is served as stored.
	if _, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"}); err != nil {
		t.Fatal(err)
	}
	key := execKey(t, blob, "mips")

	frame, _, err := cl.PeerTranslation(up.Hash, "mips", key, "test", noOrg)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, payload, err := wire.DecodePeerFrame(frame)
	if err != nil || gotKey != key {
		t.Fatalf("frame decode: key %q err %v", gotKey, err)
	}
	if _, err := wire.DecodeProgram(payload); err != nil {
		t.Fatalf("payload is not an OWP program: %v", err)
	}

	// Key/path disagreement is refused in both directions.
	if _, _, err := cl.PeerTranslation(up.Hash, "sparc", key, "test", noOrg); err == nil {
		t.Error("key for mips served under a sparc path")
	}
	if _, _, err := cl.PeerTranslation("badhash", "mips", key, "test", noOrg); err == nil {
		t.Error("key served under a mismatched module path")
	}
	if _, _, err := cl.PeerTranslation(up.Hash, "mips", "", "test", noOrg); err == nil {
		t.Error("missing key accepted")
	}
	if _, _, err := cl.PeerTranslation(up.Hash, "mips", "k2|garbage", "test", noOrg); err == nil {
		t.Error("malformed key accepted")
	}
	// A key minted by another translator version names code this node
	// cannot produce: refused, not answered with this translator's
	// output framed under a foreign identity.
	other := strings.Replace(key, fmt.Sprintf("|tr=%d", translate.Version), fmt.Sprintf("|tr=%d", translate.Version+1), 1)
	if other == key {
		t.Fatalf("key %q carries no translator version", key)
	}
	if _, _, err := cl.PeerTranslation(up.Hash, "mips", other, "test", noOrg); err == nil {
		t.Error("key from another translator version served")
	}
}

// Every /v1/peer/* endpoint requires the shared cluster secret: a
// request with a missing or wrong secret is refused with 401 before
// any decoding or verification work, and a handler cannot even be
// built in cluster mode without one. The peer surface is read-only:
// nothing accepts a translation a node did not ask for.
func TestPeerAuthRequired(t *testing.T) {
	bare := serve.New(serve.Config{Workers: 1})
	defer bare.Close()
	if _, err := netserve.New(netserve.Config{Server: bare, Peer: &fakeHooks{}}); err == nil {
		t.Fatal("cluster-mode handler built without PeerAuth")
	}

	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{Peer: &fakeHooks{}})
	blob := buildBlob(t, `int main(void){ return 8; }`)
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	key := execKey(t, blob, "mips")

	for _, secret := range []string{"", "wrong-secret"} {
		bad := &netserve.Client{Base: cl.Base, PeerAuth: secret}
		is401 := func(err error) bool {
			var se *netserve.StatusError
			return errors.As(err, &se) && se.Code == http.StatusUnauthorized
		}
		if _, _, _, err := bad.PeerModule(up.Hash, "x", noOrg); !is401(err) {
			t.Errorf("PeerModule with secret %q: %v, want 401", secret, err)
		}
		if _, _, err := bad.PeerTranslation(up.Hash, "mips", key, "x", noOrg); !is401(err) {
			t.Errorf("PeerTranslation with secret %q: %v, want 401", secret, err)
		}
	}

	req, err := http.NewRequest(http.MethodPost, cl.Base+"/v1/peer/translation/"+up.Hash+"/mips", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(netserve.PeerAuthHeader, testPeerSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to the translation path with the right secret: status %d, want 405", resp.StatusCode)
	}
}

// Exec on a node that never saw the upload: cluster mode fetches the
// module from peers by content address; a peer serving wrong bytes
// under the name is discarded.
func TestExecFetchesModuleViaPeers(t *testing.T) {
	blob := buildBlob(t, `int main(void){ return 44; }`)
	hash := wire.Hash(blob)
	hooks := &fakeHooks{mods: map[string][]byte{hash: blob}}
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{Peer: hooks})

	res, err := cl.Exec(netserve.ExecRequest{Module: hash, Target: "mips", Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" || res.Exit != 44 || res.Parity == nil || !*res.Parity {
		t.Fatalf("peer-fetched module exec: %+v", res)
	}
	// Second exec uses the registered copy (no second fetch needed,
	// and the warm cache serves the translation).
	res, err = cl.Exec(netserve.ExecRequest{Module: hash, Target: "mips"})
	if err != nil || !res.Cached {
		t.Fatalf("repeat exec not warm: %+v, %v", res, err)
	}

	// A lying peer: the blob under the name decodes but hashes
	// differently. The node must refuse to register it.
	other := buildBlob(t, `int main(void){ return 55; }`)
	lying := &fakeHooks{mods: map[string][]byte{hash: other}}
	cl2, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{Peer: lying})
	_, err = cl2.Exec(netserve.ExecRequest{Module: hash, Target: "mips"})
	if err == nil || !strings.Contains(err.Error(), "not uploaded") {
		t.Fatalf("content-address mismatch not refused: %v", err)
	}
}

// Peer endpoints forward the ORIGINATING request id instead of minting
// a fresh one: the inbound X-Omni-Request-Id is echoed on the response
// header and in error bodies, so a remote failure names a request the
// origin operator can actually find. Non-peer endpoints keep minting.
func TestPeerRequestIDForwarding(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{Peer: &fakeHooks{}})

	get := func(path, rid string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, cl.Base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(netserve.PeerAuthHeader, testPeerSecret)
		if rid != "" {
			req.Header.Set(netserve.RequestIDHeader, rid)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A peer miss (404): the forwarded id comes back in the header AND
	// the JSON error body.
	resp := get("/v1/peer/module/ffff", "origin-req-7")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer miss status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(netserve.RequestIDHeader); got != "origin-req-7" {
		t.Errorf("response header id %q, want the forwarded origin-req-7", got)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != "origin-req-7" {
		t.Errorf("error body request_id %q, want origin-req-7", body.RequestID)
	}

	// Without an inbound id even a peer endpoint mints one — responses
	// are never unattributed.
	resp2 := get("/v1/peer/module/ffff", "")
	resp2.Body.Close()
	if resp2.Header.Get(netserve.RequestIDHeader) == "" {
		t.Error("peer response without inbound id has no request id")
	}

	// Non-peer endpoints mint their own id: a client-supplied header
	// must NOT leak into the public surface's attribution.
	req, _ := http.NewRequest(http.MethodGet, cl.Base+"/v1/metrics", nil)
	req.Header.Set(netserve.RequestIDHeader, "spoofed-id")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get(netserve.RequestIDHeader); got == "spoofed-id" || got == "" {
		t.Errorf("public endpoint request id %q, want a freshly minted one", got)
	}
}
