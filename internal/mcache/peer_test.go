package mcache_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

// fakePeers is an in-process PeerSource: a map of candidate lists,
// offered in order until one is accepted, plus the gate's verdicts
// recorded for inspection.
type fakePeers struct {
	mu          sync.Mutex
	cands       map[string][]mcache.PeerCandidate
	admitted    []string // "key@peer"
	quarantined []string // "key@peer/reason"
	origins     []mcache.PeerOrigin
}

func (f *fakePeers) Fetch(key string, org mcache.PeerOrigin, accept func(*target.Program) (string, error)) *mcache.PeerCandidate {
	f.mu.Lock()
	f.origins = append(f.origins, org)
	cands := f.cands[key]
	f.mu.Unlock()
	for i := range cands {
		reason, err := accept(cands[i].Prog)
		f.mu.Lock()
		if err != nil {
			f.quarantined = append(f.quarantined, key+"@"+cands[i].Peer+"/"+reason)
		} else {
			f.admitted = append(f.admitted, key+"@"+cands[i].Peer)
		}
		f.mu.Unlock()
		if err == nil {
			return &cands[i]
		}
	}
	return nil
}

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

// TestPeerFill is the acceptance-criterion path in miniature: a cold
// cache whose peer already holds the translation serves it with zero
// local translations, and the fill is visible in stats and the trace.
func TestPeerFill(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	warmProg, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
		k: {{Prog: warmProg, Peer: "node-b"}},
	}}
	cold := mcache.NewWith(mcache.Config{Peer: peers})

	tr := trace.New("t1", "lookup")
	sp := tr.Root
	prog, served, err := cold.TranslateTraced(sp, mod, m, si, opt)
	tr.Finish("ok")
	if err != nil {
		t.Fatal(err)
	}
	if !served || prog != warmProg {
		t.Errorf("peer fill not served warm (served=%v)", served)
	}
	s := cold.Stats()
	if s.Misses != 0 {
		t.Errorf("peer fill still translated locally: %+v", s)
	}
	if s.PeerHits != 1 || s.PeerQuarantines != 0 {
		t.Errorf("peer counters wrong: %+v", s)
	}
	if len(peers.admitted) != 1 || peers.admitted[0] != k+"@node-b" {
		t.Errorf("admission attribution %v", peers.admitted)
	}
	if sp.Find("peer_fetch") == nil {
		t.Error("no peer_fetch span recorded")
	}
	if len(peers.origins) != 1 || peers.origins[0].TraceID != "t1" {
		t.Errorf("peer probe origin not propagated: %+v", peers.origins)
	}
	if sp.Find("translate") != nil {
		t.Error("translate span recorded on a peer fill")
	}
	// The fill is now a local entry: the next lookup is a plain hit.
	if _, served, _ := cold.Translate(mod, m, si, opt); !served {
		t.Error("entry not installed after peer fill")
	}
}

// TestPeerQuarantine drives the adversarial-peer contract at the cache
// layer: a tampered candidate is refused by the sfi.Check gate,
// quarantined and counted, never served, and the lookup degrades to an
// honest local translation.
func TestPeerQuarantine(t *testing.T) {
	t.Run("check", func(t *testing.T) {
		mod := buildMod(t, prog1)
		m := target.MIPSMachine()
		si := core.SegInfoFor(mod, core.RunConfig{})
		opt := translate.Paper(true)

		tampered, err := translate.Translate(mod, m, si, opt)
		if err != nil {
			t.Fatal(err)
		}
		stripSandboxMask(t, tampered, m)
		k := mcache.Key(mod, m, si, opt)
		peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
			k: {{Prog: tampered, Peer: "evil"}},
		}}
		c := mcache.NewWith(mcache.Config{Peer: peers})

		prog, served, err := c.Translate(mod, m, si, opt)
		if err != nil {
			t.Fatal(err)
		}
		if served {
			t.Error("tampered peer candidate served as warm")
		}
		if prog == tampered {
			t.Fatal("tampered program escaped quarantine")
		}
		s := c.Stats()
		if s.PeerQuarantines != 1 || s.PeerHits != 0 || s.Misses != 1 {
			t.Errorf("stats %+v", s)
		}
		if len(peers.quarantined) != 1 || peers.quarantined[0] != k+"@evil/"+mcache.QuarantineVerifier {
			t.Errorf("quarantine attribution %v", peers.quarantined)
		}
	})
}

// TestPeerSecondCandidateWins: the first (bad) candidate is
// quarantined and the next owner's honest copy is admitted — the
// probe order degrades per candidate, not per lookup — and nothing
// after the first accepted copy is offered.
func TestPeerSecondCandidateWins(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	good, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	stripSandboxMask(t, bad, m)
	k := mcache.Key(mod, m, si, opt)
	peers := &fakePeers{cands: map[string][]mcache.PeerCandidate{
		k: {{Prog: bad, Peer: "evil"}, {Prog: good, Peer: "honest"}, {Prog: good, Peer: "unasked"}},
	}}
	c := mcache.NewWith(mcache.Config{Peer: peers})

	prog, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !served || prog != good {
		t.Errorf("honest second candidate not served (served=%v)", served)
	}
	s := c.Stats()
	if s.PeerHits != 1 || s.PeerQuarantines != 1 || s.Misses != 0 {
		t.Errorf("stats %+v", s)
	}
	if len(peers.admitted) != 1 || peers.admitted[0] != k+"@honest" {
		t.Errorf("admission attribution %v", peers.admitted)
	}
}

// previousKey is k as a binary older than translate.Version filed it:
// key format k1, which had no translator field.
func previousKey(k string) string {
	f := strings.Split(k, "|")
	return "k1|" + strings.Join(f[1:5], "|")
}

// otherTranslatorKey is k as a translator one version older mints it.
func otherTranslatorKey(k string) string {
	cur := fmt.Sprintf("|tr=%d", translate.Version)
	return strings.Replace(k, cur, fmt.Sprintf("|tr=%d", translate.Version-1), 1)
}

func TestParseKeyRoundTrip(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.SPARCMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	opt.SFIHoist = true

	k := mcache.Key(mod, m, si, opt)
	gm, gsi, gopt, err := mcache.ParseKey(k)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Name != m.Name || gsi != si || gopt != opt {
		t.Errorf("ParseKey(%q) = %s %+v %+v", k, gm.Name, gsi, gopt)
	}
	h, err := mcache.KeyModuleHash(k)
	if err != nil || h != mcache.ModuleHash(mod) {
		t.Errorf("KeyModuleHash = %q, %v", h, err)
	}
	bad := []string{"", "k2", "k2|a|mips|x|y|z", previousKey(k), otherTranslatorKey(k),
		strings.Replace(k, "|sparc|", "|vax|", 1)}
	for _, bad := range bad {
		if _, _, _, err := mcache.ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
}

// TestPeekAndAdmitKeyed covers the peer-serving read and the keyed
// write: Peek exposes what is stored without verifying or touching
// recency; AdmitKeyed re-verifies a program made elsewhere against the
// policy its key encodes and, when a retranslate function is supplied,
// demands that it equal the local translation.
func TestPeekAndAdmitKeyed(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	retranslate := func() (*target.Program, error) {
		return translate.Translate(mod, m, si, opt)
	}

	c := mcache.New(0)
	if _, _, ok := c.Peek(k); ok {
		t.Fatal("Peek hit on an empty cache")
	}
	if err := c.AdmitKeyed(k, prog, retranslate); err != nil {
		t.Fatalf("honest admission rejected: %v", err)
	}
	if got, tier, ok := c.Peek(k); !ok || got != prog || tier != "memory" {
		t.Error("Peek does not see the admitted entry")
	}

	tampered, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	stripSandboxMask(t, tampered, m)
	c2 := mcache.New(0)
	err = c2.AdmitKeyed(k, tampered, retranslate)
	if err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Fatalf("tampered program admitted: %v", err)
	}
	if _, _, ok := c2.Peek(k); ok {
		t.Error("tampered program visible via Peek")
	}
	if err := c2.AdmitKeyed("not-a-key", prog, retranslate); err == nil {
		t.Error("unparseable key accepted")
	}
	if err := c2.AdmitKeyed(otherTranslatorKey(k), prog, nil); err == nil {
		t.Error("key minted by another translator version accepted")
	}
}

// TestAdmitKeyedCorrespondence: a keyed program that PASSES the SFI
// gate (it is contained) but is not the translation of the module its
// key names must be refused by the correspondence check.
func TestAdmitKeyedCorrespondence(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	// Translated without scheduling: contained, but not the code the
	// scheduled identity names.
	unsched := opt
	unsched.Schedule = false
	wrong, err := translate.Translate(mod, m, si, unsched)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	c := mcache.NewWith(mcache.Config{Logf: t.Logf})
	err = c.AdmitKeyed(k, wrong, func() (*target.Program, error) {
		return translate.Translate(mod, m, si, opt)
	})
	if err == nil || !strings.Contains(err.Error(), "differs from the local translation") {
		t.Fatalf("sandboxed-but-wrong program admitted: %v", err)
	}
	if _, _, ok := c.Peek(k); ok {
		t.Error("wrong program visible via Peek")
	}
}

// TestAdmitKeyedNeverOverwritesDisk: an AdmitKeyed for a key the
// persistent tier already holds must not rewrite the disk entry — a
// correct persisted translation survives whatever a later one claims.
func TestAdmitKeyedNeverOverwritesDisk(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)

	store, err := diskstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := mcache.NewWith(mcache.Config{Disk: store, Logf: t.Logf})
	if err := c.AdmitKeyed(k, prog, nil); err != nil {
		t.Fatalf("first admission rejected: %v", err)
	}
	if !store.Has(k) {
		t.Fatal("first admission not written through")
	}

	// A different-but-contained program admitted to a fresh cache over
	// the same store (retranslate nil so only the disk guard stands
	// between it and the persisted entry).
	unsched := opt
	unsched.Schedule = false
	other, err := translate.Translate(mod, m, si, unsched)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mcache.NewWith(mcache.Config{Disk: store, Logf: t.Logf})
	if err := c2.AdmitKeyed(k, other, nil); err != nil {
		t.Fatalf("second admission rejected: %v", err)
	}
	onDisk, err := store.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk.Code, prog.Code) {
		t.Error("second admission overwrote the persisted entry")
	}
}
