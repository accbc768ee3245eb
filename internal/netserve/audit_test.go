package netserve_test

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/wire"
)

// recSrc is a directly recursive module — the shape the enforce gate
// must refuse with the cycle named.
const recSrc = `
int spin(int n) { if (n <= 0) return 0; return spin(n - 1) + 1; }
int main(void) { return spin(40); }
`

// chainSrc is a bounded three-deep call chain: auditable, admissible,
// and deep enough that a tight stack cap refuses it with the proven
// bound in the error body.
const chainSrc = `
int leaf(int x) { return x * 2 + 1; }
int mid(int x) { int a[8]; int i; for (i = 0; i < 8; i++) a[i] = leaf(x + i); return a[3] + a[5]; }
int top(int x) { return mid(x) + mid(x + 1); }
int main(void) { return top(3) & 127; }
`

func status422(t *testing.T, err error) *netserve.StatusError {
	t.Helper()
	var se *netserve.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StatusError", err)
	}
	if se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", se.Code, se.Message)
	}
	return se
}

// Warn mode admits everything, annotates the upload response with the
// manifest + stack proof, counts violations, and serves the full
// report from /v1/audit/{hash}.
func TestAuditWarnMode(t *testing.T) {
	cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Audit: netserve.AuditConfig{Mode: netserve.AuditWarn, MaxStackBytes: 1},
	})
	up, err := cl.Upload(buildBlob(t, chainSrc))
	if err != nil {
		t.Fatalf("warn mode refused an over-cap module: %v", err)
	}
	if up.Audit == nil {
		t.Fatal("upload response carries no audit summary")
	}
	if !up.Audit.StackBounded || up.Audit.StackBytes <= 0 {
		t.Fatalf("chain module stack proof: %+v", up.Audit)
	}
	if len(up.Audit.Capabilities) == 0 {
		t.Fatalf("no capability manifest: %+v", up.Audit)
	}
	if len(up.Audit.Warnings) == 0 || !strings.Contains(up.Audit.Warnings[0], "stack") {
		t.Fatalf("warn mode did not surface the stack violation: %+v", up.Audit.Warnings)
	}

	rep, err := cl.Audit(up.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hash != up.Hash || rep.Digest() != up.Audit.Digest {
		t.Fatalf("served report names %s digest %s; upload said %s digest %s",
			rep.Hash, rep.Digest(), up.Hash, up.Audit.Digest)
	}
	if len(rep.Functions) == 0 || len(rep.Cost) == 0 {
		t.Fatalf("served report is hollow: %+v", rep)
	}

	snap := srv.Snapshot()
	if snap.AuditWarns["stack"] == 0 {
		t.Fatalf("stack warning not counted: %+v", snap.AuditWarns)
	}
	if snap.AuditRejects["stack"] != 0 {
		t.Fatalf("warn mode counted a reject: %+v", snap.AuditRejects)
	}

	// The exec trace carries the backdated upload-time audit span.
	res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Root.Find("audit") == nil {
		t.Fatal("exec trace has no audit span")
	}
}

// Enforce mode refuses a recursive module at upload with the cycle
// named, and a deep-chain module over the stack cap with the proven
// bound in the body. Nothing refused is ever registered.
func TestAuditEnforceRejects(t *testing.T) {
	cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Audit: netserve.AuditConfig{Mode: netserve.AuditEnforce},
	})
	_, err := cl.Upload(buildBlob(t, recSrc))
	se := status422(t, err)
	if !strings.Contains(se.Message, "recursion cycle") || !strings.Contains(se.Message, "spin") {
		t.Fatalf("422 body does not name the recursion cycle: %q", se.Message)
	}
	if srv.Snapshot().AuditRejects["recursion"] == 0 {
		t.Fatal("recursion reject not counted")
	}
	recHash := wire.Hash(buildBlob(t, recSrc))
	if _, err := cl.Exec(netserve.ExecRequest{Module: recHash, Target: "mips"}); err == nil {
		t.Fatal("rejected module is executable")
	}

	// Stack cap: the same server would admit the chain (no caps beyond
	// enforce mode); a capped server names the proven bound.
	if _, err := cl.Upload(buildBlob(t, chainSrc)); err != nil {
		t.Fatalf("bounded module refused without caps: %v", err)
	}
	clCap, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Audit: netserve.AuditConfig{Mode: netserve.AuditEnforce, MaxStackBytes: 8},
	})
	_, err = clCap.Upload(buildBlob(t, chainSrc))
	se = status422(t, err)
	if !strings.Contains(se.Message, "stack bound") || !strings.Contains(se.Message, "exceeds cap 8") {
		t.Fatalf("422 body does not state the stack bound: %q", se.Message)
	}
}

// Capability allow-lists gate on the manifest: a module that prints
// violates an exit-only list.
func TestAuditCapabilityGate(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Audit: netserve.AuditConfig{Mode: netserve.AuditEnforce, Capabilities: []string{"exit"}},
	})
	_, err := cl.Upload(buildBlob(t, `int main(void){ _putc('x'); return 0; }`))
	se := status422(t, err)
	if !strings.Contains(se.Message, "capability") || !strings.Contains(se.Message, "putc") {
		t.Fatalf("422 body does not name the capability: %q", se.Message)
	}
	if _, err := cl.Upload(buildBlob(t, `int main(void){ return 7; }`)); err != nil {
		t.Fatalf("exit-only module refused: %v", err)
	}
}

// The peer-fill path is upload by another road: a cold node in enforce
// mode re-derives the audit on arrival and refuses a module its gate
// would have refused at upload — it is never registered or served.
func TestAuditPeerFillRejected(t *testing.T) {
	blob := buildBlob(t, recSrc)
	hash := wire.Hash(blob)
	hooks := &fakeHooks{mods: map[string][]byte{hash: blob}}
	cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Peer:  hooks,
		Audit: netserve.AuditConfig{Mode: netserve.AuditEnforce},
	})
	_, err := cl.Exec(netserve.ExecRequest{Module: hash, Target: "mips"})
	se := status422(t, err)
	if !strings.Contains(se.Message, "peer-filled") || !strings.Contains(se.Message, "recursion cycle") {
		t.Fatalf("cold-node 422 body: %q", se.Message)
	}
	if srv.Snapshot().AuditRejects["recursion"] == 0 {
		t.Fatal("cold-node reject not counted")
	}
	// Still refused on retry — the rejection did not register anything.
	if _, err := cl.Exec(netserve.ExecRequest{Module: hash, Target: "mips"}); err == nil {
		t.Fatal("rejected peer-filled module served on retry")
	}

	// A warn-mode cold node admits the same module and records its
	// audit cost on the job trace.
	clW, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Peer:  &fakeHooks{mods: map[string][]byte{hash: blob}},
		Audit: netserve.AuditConfig{Mode: netserve.AuditWarn},
	})
	res, err := clW.Exec(netserve.ExecRequest{Module: hash, Target: "mips", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Root.Find("audit") == nil {
		t.Fatal("peer-filled exec trace has no audit span")
	}
}

// Off mode (the zero value) gates nothing and annotates nothing, but
// /v1/audit/{hash} still derives on demand; an unknown hash is 404.
func TestAuditOffModeOnDemand(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	up, err := cl.Upload(buildBlob(t, recSrc))
	if err != nil {
		t.Fatal(err)
	}
	if up.Audit != nil {
		t.Fatalf("off mode annotated the upload: %+v", up.Audit)
	}
	rep, err := cl.Audit(up.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stack.Bounded || rep.Stack.Reason != "recursion" {
		t.Fatalf("on-demand report misses the recursion: %+v", rep.Stack)
	}
	if _, err := cl.Audit("feedface"); err == nil {
		t.Fatal("audit served for an unknown hash")
	}
}

func TestAuditConfigValidation(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	if _, err := netserve.New(netserve.Config{Server: srv, Audit: netserve.AuditConfig{Mode: "paranoid"}}); err == nil {
		t.Fatal("unknown audit mode accepted")
	}
}

// The audit counters reach /v1/metrics in both renderings: one module
// uploaded twice is one derivation (the audit stage's sample count)
// and two gate passes.
func TestAuditCountersReachMetrics(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Audit: netserve.AuditConfig{Mode: netserve.AuditWarn},
	})
	blob := buildBlob(t, chainSrc)
	for i := 0; i < 2; i++ {
		if _, err := cl.Upload(blob); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stages["audit"].Count != 1 || snap.AuditPass != 2 {
		t.Errorf("one module uploaded twice: stages.audit.count = %d (want 1), audit_pass = %d (want 2)",
			snap.Stages["audit"].Count, snap.AuditPass)
	}
	prom, err := cl.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nomni_stage_latency_seconds_count{stage=\"audit\"} 1\n",
		"\nomni_audit_pass_total 2\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(want), prom)
		}
	}
}
