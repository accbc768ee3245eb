package cluster_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"

	"omniware/internal/audit"
	"omniware/internal/cc"
	"omniware/internal/cluster"
	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/netserve"
	"omniware/internal/ovm"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

const prog1 = `
int g[64];
int main(void) {
	int i, acc = 0;
	for (i = 0; i < 64; i++) { g[i] = i * 3; acc += g[i]; }
	_print_int(acc);
	return acc & 0xff;
}`

func buildMod(t *testing.T, src string) *ovm.Module {
	t.Helper()
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func encodeMod(t *testing.T, mod *ovm.Module) []byte {
	t.Helper()
	blob, err := wire.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func bootCluster(t *testing.T, n int, verify mcache.VerifyMode) *cluster.Local {
	t.Helper()
	l, err := cluster.BootLocal(cluster.BootConfig{
		Nodes:   n,
		Fanout:  2,
		Workers: 2,
		Verify:  verify,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

func nodeByAddr(t *testing.T, l *cluster.Local, addr string) *cluster.Node {
	t.Helper()
	for _, n := range l.Nodes {
		if n.Addr == addr {
			return n
		}
	}
	t.Fatalf("no node at %s in %v", addr, l.Addrs())
	return nil
}

// The tentpole acceptance path: a module uploaded to one node and
// executed on its owner is then served by a cold node with ZERO local
// translations — the translation arrives by peer fill, re-verified,
// and the fill is visible in the trace and the metrics.
func TestPeerFillAcrossNodes(t *testing.T) {
	l := bootCluster(t, 3, mcache.VerifyCheck)
	blob := buildAndEncode(t)
	hash := wire.Hash(blob)

	// Upload via the first ring owner only, then warm it with one
	// exec. Uploading to the owner itself keeps the warm translation
	// local and deterministic: the OTHER owner holds no module bytes,
	// so it cannot answer the warm node's probe with an owner fill
	// (§13) — which it otherwise would whenever the upload node
	// happened to land on the ring as the second owner.
	owners := l.Nodes[0].Peers.Owners(hash)
	warm := nodeByAddr(t, l, owners[0])
	if _, err := l.Client(2).Node(warm.Addr).Upload(blob); err != nil {
		t.Fatal(err)
	}
	warmRes, err := l.Client(2).Node(warm.Addr).Exec(netserve.ExecRequest{Module: hash, Target: "mips"})
	if err != nil {
		t.Fatal(err)
	}
	wm, err := l.Client(2).Node(warm.Addr).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if wm.Translations != 1 {
		t.Fatalf("warm node translations = %d, want 1", wm.Translations)
	}

	// A node that is neither the upload node nor the warm owner. With
	// three nodes at least one remains.
	var cold *cluster.Node
	for _, n := range l.Nodes {
		if n != warm && n != l.Nodes[0] {
			cold = n
		}
	}
	if cold == nil {
		cold = l.Nodes[1]
	}
	res, err := l.Client(2).Node(cold.Addr).Exec(netserve.ExecRequest{Module: hash, Target: "mips", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" || res.Exit != warmRes.Exit || res.Output != warmRes.Output {
		t.Fatalf("cold node result %+v, warm %+v", res, warmRes)
	}
	if !res.Cached {
		t.Error("cold node exec not served warm")
	}
	if res.Trace == nil || res.Trace.Root.Find("peer_fetch") == nil {
		t.Error("cold node trace missing the peer_fetch span")
	}
	if sp := res.Trace.Root.Find("translate"); sp != nil {
		t.Error("cold node trace contains a translate span — retranslated instead of peer-filling")
	}

	cm, err := l.Client(2).Node(cold.Addr).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Translations != 0 {
		t.Errorf("cold node performed %d translations, want 0", cm.Translations)
	}
	if cm.CachePeerHits != 1 {
		t.Errorf("cold node peer hits = %d, want 1", cm.CachePeerHits)
	}
	if cm.Cluster == nil {
		t.Fatal("cold node snapshot has no cluster section")
	}
	var hitPeer string
	for _, ps := range cm.Cluster.Peers {
		if ps.Hits > 0 {
			hitPeer = ps.Peer
		}
	}
	if hitPeer != warm.Addr {
		t.Errorf("peer hit attributed to %q, want %q", hitPeer, warm.Addr)
	}
}

func buildAndEncode(t *testing.T) []byte {
	t.Helper()
	return encodeMod(t, buildMod(t, prog1))
}

// stripSandboxMask turns a verified program into a valid-but-
// unverifiable one: the translation still decodes cleanly but its
// sandboxing mask is gone, so the SFI verifier must refuse it.
func stripSandboxMask(t *testing.T, prog *target.Program, m *target.Machine) {
	t.Helper()
	for i := range prog.Code {
		in := &prog.Code[i]
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			in.Op = target.Nop
			in.Rd, in.Rs1, in.Rs2 = target.NoReg, target.NoReg, target.NoReg
			return
		}
	}
	t.Fatal("no sandboxing mask found to strip")
}

// The adversarial-peer harness: a fake cluster member serves
// corrupted, truncated, mis-keyed, and valid-but-unverifiable
// translation frames. In every case the victim node must quarantine
// the response, fall back to a local translation, and serve correct
// results — an adversarial peer can cost work, never safety.
func TestAdversarialPeers(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.ByName("mips")
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	honest, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *honest
	tampered.Code = append([]target.Inst(nil), honest.Code...)
	stripSandboxMask(t, &tampered, m)
	tamperedBytes, err := wire.EncodeProgram(&tampered)
	if err != nil {
		t.Fatal(err)
	}

	frameFor := func(t *testing.T, key string, payload []byte) []byte {
		t.Helper()
		f, err := wire.EncodePeerFrame(key, payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Each case maps the requested key to the evil server's response;
	// reason is the quarantine label the refusal must land under.
	cases := []struct {
		name string
		body func(t *testing.T, key string) []byte
		// cacheQuarantine: the candidate reached the cache's admission
		// gate (frame was well-formed) and was refused there.
		cacheQuarantine bool
		reason          string
	}{
		{"corrupted", func(t *testing.T, key string) []byte {
			return []byte("OPF1 this is not a frame at all....")
		}, false, mcache.QuarantineFrame},
		{"truncated", func(t *testing.T, key string) []byte {
			f := frameFor(t, key, tamperedBytes)
			return f[:len(f)/2]
		}, false, mcache.QuarantineFrame},
		{"wrong-key", func(t *testing.T, key string) []byte {
			return frameFor(t, key+"-other", tamperedBytes)
		}, false, mcache.QuarantineKeyMismatch},
		{"unverifiable", func(t *testing.T, key string) []byte {
			return frameFor(t, key, tamperedBytes)
		}, true, mcache.QuarantineVerifier},
	}

	for _, mode := range []mcache.VerifyMode{mcache.VerifyCheck, mcache.VerifyBoth} {
		for _, tc := range cases {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !strings.Contains(r.URL.Path, "/v1/peer/translation/") {
						http.NotFound(w, r)
						return
					}
					w.Header().Set("Content-Type", "application/octet-stream")
					_, _ = w.Write(tc.body(t, r.URL.Query().Get("key")))
				}))
				defer evil.Close()

				self := "http://self.invalid"
				peers, err := cluster.New(cluster.Config{
					Self:    self,
					Members: []string{self, evil.URL},
					Secret:  "test-peer-secret",
					Fanout:  2,
					Logf:    t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				c := mcache.NewWith(mcache.Config{Verify: mode, Peer: peers, Logf: t.Logf})

				prog, warm, err := c.Translate(mod, m, si, opt)
				if err != nil {
					t.Fatalf("lookup failed instead of falling back: %v", err)
				}
				if warm {
					t.Fatal("adversarial candidate was served as a peer fill")
				}
				// The served program is the honest local translation
				// — its sandboxing mask is intact.
				if !hasSandboxMask(prog, m) {
					t.Error("served program lacks the sandboxing mask")
				}
				st := c.Stats()
				if st.PeerHits != 0 {
					t.Errorf("peer hits = %d, want 0", st.PeerHits)
				}
				if st.Misses != 1 {
					t.Errorf("misses = %d, want 1 (local retranslation)", st.Misses)
				}
				if tc.cacheQuarantine && st.PeerQuarantines != 1 {
					t.Errorf("cache peer quarantines = %d, want 1", st.PeerQuarantines)
				}
				snap := peers.Snapshot()
				if len(snap.Peers) != 1 || snap.Peers[0].Peer != evil.URL {
					t.Fatalf("cluster snapshot peers %+v", snap.Peers)
				}
				if q := snap.Peers[0].Quarantines; q != 1 {
					t.Errorf("per-peer quarantines = %d, want 1", q)
				}
				if got := snap.Peers[0].QuarantinesByReason[tc.reason]; got != 1 {
					t.Errorf("quarantines under reason %q = %d, want 1 (map %v)",
						tc.reason, got, snap.Peers[0].QuarantinesByReason)
				}
				var reasonTotal uint64
				for _, v := range snap.Peers[0].QuarantinesByReason {
					reasonTotal += v
				}
				if reasonTotal != snap.Peers[0].Quarantines {
					t.Errorf("reason-split sum %d != total quarantines %d",
						reasonTotal, snap.Peers[0].Quarantines)
				}
				if h := snap.Peers[0].Hits; h != 0 {
					t.Errorf("per-peer hits = %d, want 0", h)
				}
				if snap.Peers[0].StalenessMs < 0 {
					t.Error("peer answered (with garbage) but staleness says never contacted")
				}
			})
		}
	}
}

func hasSandboxMask(prog *target.Program, m *target.Machine) bool {
	for _, in := range prog.Code {
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			return true
		}
	}
	return false
}

// The omniscope acceptance path: an exec on a cold non-owner stitches
// the remote owner's own spans — node-annotated cache, translate and
// verify work — into ONE trace fetchable by id from the origin, and
// /v1/cluster/metrics on any node reports fleet-summed histograms
// equal bucket-wise to the sum of the members' local snapshots.
func TestStitchedTraceAndFleetMetrics(t *testing.T) {
	l := bootCluster(t, 3, mcache.VerifyCheck)
	blob := buildAndEncode(t)
	hash := wire.Hash(blob)

	// Register the module on EVERY node but translate nowhere: the
	// owner's first translation happens inside its peer-serve fill.
	for _, n := range l.Nodes {
		if _, err := l.Client(2).Node(n.Addr).Upload(blob); err != nil {
			t.Fatal(err)
		}
	}
	owners := l.Nodes[0].Peers.Owners(hash)
	isOwner := map[string]bool{}
	for _, o := range owners {
		isOwner[o] = true
	}
	var origin *cluster.Node
	for _, n := range l.Nodes {
		if !isOwner[n.Addr] {
			origin = n
		}
	}
	if origin == nil {
		t.Fatal("no non-owner node with 3 nodes and fanout 2")
	}

	cl := l.Client(2).Node(origin.Addr)
	res, err := cl.Exec(netserve.ExecRequest{Module: hash, Target: "mips", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" {
		t.Fatalf("exec: %+v", res)
	}
	if !res.Cached {
		t.Error("cold non-owner exec was not peer-filled")
	}

	// The stitched tree must be fetchable BY ID from the origin — not
	// only inline in the exec response.
	tr, err := cl.Trace(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	remote := tr.Root.Find("peer_serve")
	if remote == nil {
		t.Fatalf("no remote peer_serve subtree in stitched trace:\n%s", tr.Render())
	}
	nodeAttr := func(s *trace.Span) string {
		for _, a := range s.Attrs {
			if a.Key == "node" {
				return a.Val
			}
		}
		return ""
	}
	owner := nodeAttr(remote)
	if !isOwner[owner] {
		t.Errorf("remote subtree annotated node=%q, want one of the owners %v", owner, owners)
	}
	for _, name := range []string{"cache", "translate", "verify"} {
		s := remote.Find(name)
		if s == nil {
			t.Errorf("remote subtree missing the owner's %s span:\n%s", name, tr.Render())
			continue
		}
		if nodeAttr(s) != owner {
			t.Errorf("remote %s span not annotated with node=%s", name, owner)
		}
	}
	om, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if om.Translations != 0 {
		t.Errorf("origin translated %d times, want 0 (the owner fill did the work)", om.Translations)
	}

	// Fleet aggregation: every node's fan-out equals the bucket-wise
	// sum of the three locals.
	var want metrics.Snapshot
	for i, n := range l.Nodes {
		s, err := l.Client(2).Node(n.Addr).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = *s
		} else {
			want = metrics.MergeSnapshots(want, *s)
		}
	}
	// The origin's probe stops at the first owner whose copy verifies:
	// one owner fill and one peer hit fleet-wide, never a translation on
	// the second owner as well.
	if want.Translations != 1 || want.CachePeerHits != 1 || want.JobsRun == 0 {
		t.Fatalf("fleet translations=%d cache_peer_hits=%d jobs_run=%d, want 1, 1 and some",
			want.Translations, want.CachePeerHits, want.JobsRun)
	}
	for _, n := range l.Nodes {
		fleet, err := l.Client(2).Node(n.Addr).ClusterMetrics()
		if err != nil {
			t.Fatal(err)
		}
		if len(fleet.Nodes) != 3 {
			t.Fatalf("fleet from %s has %d node reports, want 3", n.Addr, len(fleet.Nodes))
		}
		for _, nr := range fleet.Nodes {
			if nr.Err != "" {
				t.Errorf("node %s reported error %q", nr.Node, nr.Err)
			}
		}
		got := fleet.Fleet
		if got == nil {
			t.Fatal("fleet view has no merged snapshot")
		}
		if got.JobsRun != want.JobsRun || got.Translations != want.Translations ||
			got.CachePeerHits != want.CachePeerHits {
			t.Errorf("fleet counters from %s: run=%d translations=%d peer_hits=%d, want %d/%d/%d",
				n.Addr, got.JobsRun, got.Translations, got.CachePeerHits,
				want.JobsRun, want.Translations, want.CachePeerHits)
		}
		for name, ws := range want.Stages {
			gs, ok := got.Stages[name]
			if !ok {
				t.Errorf("fleet from %s missing stage %q", n.Addr, name)
				continue
			}
			if gs.Hist.Count != ws.Hist.Count || !reflect.DeepEqual(gs.Hist.Counts, ws.Hist.Counts) {
				t.Errorf("stage %q fleet hist != bucket-wise sum of locals (got count=%d, want %d)",
					name, gs.Hist.Count, ws.Hist.Count)
			}
		}
	}
}

// The cluster client survives node death: with the module on both
// owners, killing one mid-stream fails over with zero caller-visible
// errors.
func TestClientFailover(t *testing.T) {
	l := bootCluster(t, 3, mcache.VerifyCheck)
	cl := l.Client(2)
	blob := buildAndEncode(t)

	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"}); err != nil {
		t.Fatal(err)
	}

	owners := cl.Ring().Owners(up.Hash, 2)
	nodeByAddr(t, l, owners[0]).Kill()

	for i := 0; i < 5; i++ {
		res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"})
		if err != nil {
			t.Fatalf("exec %d after node death: %v", i, err)
		}
		if res.Status != "ok" {
			t.Fatalf("exec %d after node death: %+v", i, res)
		}
	}
	if cl.Failovers() == 0 {
		t.Error("no failovers recorded despite a dead owner")
	}

	// Client misuse is not retried around the ring: an unknown module
	// fails fast with the server's 404. The failover counter may move
	// at most once — skipping the dead owner — never a full sweep.
	before := cl.Failovers()
	_, err = cl.Exec(netserve.ExecRequest{Module: strings.Repeat("0", 64), Target: "mips"})
	var se *netserve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("unknown module exec error = %v, want a 404", err)
	}
	if d := cl.Failovers() - before; d > 1 {
		t.Errorf("404 consumed %d failovers, want at most the dead owner's", d)
	}
}

// A failover is one member abandoned for another. With a single member
// there is no other: its death is the caller's error, wrapping the
// transport failure, and the failover counter stays at zero.
func TestNoFailoverWithoutAnotherMember(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cl, err := cluster.NewClient(cluster.ClientConfig{Addrs: []string{dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	var ue *url.Error
	if _, err := cl.Upload(buildAndEncode(t)); !errors.As(err, &ue) || !strings.Contains(err.Error(), "every member") {
		t.Errorf("upload to a dead lone member: %v, want the wrapped transport error", err)
	}
	if _, err := cl.Exec(netserve.ExecRequest{Module: strings.Repeat("0", 64), Target: "mips"}); !errors.As(err, &ue) || !strings.Contains(err.Error(), "every member") {
		t.Errorf("exec on a dead lone member: %v, want the wrapped transport error", err)
	}
	if n := cl.Failovers(); n != 0 {
		t.Errorf("%d failovers with no second member to fail over to", n)
	}
}

// The metrics package names two closed label sets it cannot import:
// the audit-gate reasons (it keeps a copy) and the per-peer quarantine
// reasons (filled in here, from the cache's list). Its counters drop a
// reason they do not know, so drift would lose counts in silence —
// pin both sets to their sources.
func TestClosedLabelSetsMirrored(t *testing.T) {
	if got := metrics.AuditReasons[:]; !slices.Equal(got, audit.GateReasons) {
		t.Errorf("metrics.AuditReasons = %v, audit.GateReasons = %v", got, audit.GateReasons)
	}

	l := bootCluster(t, 2, mcache.VerifyCheck)
	snap := l.Nodes[0].Server.Snapshot()
	if snap.Cluster == nil || len(snap.Cluster.Peers) != 1 {
		t.Fatalf("cluster section: %+v", snap.Cluster)
	}
	var keys []string
	for k := range snap.Cluster.Peers[0].QuarantinesByReason {
		keys = append(keys, k)
	}
	want := slices.Clone(mcache.QuarantineReasons)
	slices.Sort(keys)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Errorf("per-peer reason keys %v, mcache.QuarantineReasons %v", keys, want)
	}
}
