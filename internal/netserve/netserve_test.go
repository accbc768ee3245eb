package netserve_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/target"
	"omniware/internal/wire"
)

func buildBlob(t *testing.T, src string) []byte {
	t.Helper()
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// startServer boots a handler over a fresh pool behind httptest and
// returns a client for it plus the pieces the test needs to poke.
func startServer(t *testing.T, scfg serve.Config, ncfg netserve.Config) (*netserve.Client, *netserve.Handler, *serve.Server) {
	t.Helper()
	srv := serve.New(scfg)
	ncfg.Server = srv
	if ncfg.Logf == nil {
		ncfg.Logf = t.Logf
	}
	if ncfg.Peer != nil && ncfg.PeerAuth == "" {
		ncfg.PeerAuth = testPeerSecret
	}
	h, err := netserve.New(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &netserve.Client{Base: ts.URL, PeerAuth: ncfg.PeerAuth}, h, srv
}

// testPeerSecret is the shared peer-auth secret startServer configures
// for cluster-mode handlers (and their clients).
const testPeerSecret = "test-peer-secret"

func TestUploadAndExec(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 2}, netserve.Config{})

	blob := buildBlob(t, `int main(void){ int i, a = 0; for (i = 1; i <= 10; i++) a += i; return a; }`)
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if up.Hash != wire.Hash(blob) {
		t.Fatalf("hash %q, want %q", up.Hash, wire.Hash(blob))
	}
	if up.Replaced {
		t.Fatal("fresh upload reported Replaced")
	}
	// Idempotent re-upload.
	up2, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !up2.Replaced || up2.Hash != up.Hash {
		t.Fatalf("re-upload: %+v", up2)
	}

	for _, m := range target.Machines() {
		res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: m.Name, Check: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.Status != "ok" || res.Exit != 55 {
			t.Fatalf("%s: %+v", m.Name, res)
		}
		if res.Parity == nil || !*res.Parity {
			t.Fatalf("%s: parity not confirmed: %+v", m.Name, res)
		}
	}

	// Same module, same target again: served from the warm cache.
	res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatalf("repeat exec not cached: %+v", res)
	}

	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsRun != 5 || snap.CacheMisses != 4 {
		t.Fatalf("metrics %+v", snap)
	}
	if err := cl.Health(); err != nil {
		t.Fatal(err)
	}
}

// A module that faults must come back as a contained fault over the
// wire — HTTP 200, status "fault(contained)" — not as a server error.
func TestContainedFaultOverWire(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	// SFI sandboxes stores (masking them into the segment), so the
	// fault a sandboxed module can still commit is an out-of-segment
	// load.
	blob := buildBlob(t, `
int main(void) {
	int *p = (int *)0x70000000;
	return *p;
}`)
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == "ok" {
		t.Fatalf("wild store ran cleanly: %+v", res)
	}
	// Whether the wild store surfaces as a module fault or a job error
	// depends on the SFI policy; either way it must be contained and
	// the server must keep serving.
	good := buildBlob(t, `int main(void){ return 7; }`)
	gup, err := cl.Upload(good)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := cl.Exec(netserve.ExecRequest{Module: gup.Hash, Target: "mips"})
	if err != nil || gres.Status != "ok" || gres.Exit != 7 {
		t.Fatalf("server unhealthy after fault: %+v err=%v", gres, err)
	}
}

func TestBadRequests(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})

	if _, err := cl.Upload([]byte("not a module")); err == nil {
		t.Fatal("garbage upload accepted")
	} else if se, ok := err.(*netserve.StatusError); !ok || se.Code != 400 {
		t.Fatalf("garbage upload: %v", err)
	}

	blob := buildBlob(t, `int main(void){ return 0; }`)
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(netserve.ExecRequest{Module: "deadbeef", Target: "mips"}); err == nil {
		t.Fatal("unknown module accepted")
	} else if se, ok := err.(*netserve.StatusError); !ok || se.Code != 404 {
		t.Fatalf("unknown module: %v", err)
	}
	if _, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "vax"}); err == nil {
		t.Fatal("unknown target accepted")
	} else if se, ok := err.(*netserve.StatusError); !ok || se.Code != 400 {
		t.Fatalf("unknown target: %v", err)
	}
}

// The rate limiter: a burst-sized volley passes, the next request is
// refused with 429 and a Retry-After.
func TestRateLimit(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1},
		netserve.Config{Rate: 1, Burst: 3})
	blob := buildBlob(t, `int main(void){ return 0; }`)
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	// One token spent on the upload; two more requests drain the
	// bucket, the next must bounce.
	var refused *netserve.StatusError
	for i := 0; i < 3; i++ {
		_, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"})
		if err != nil {
			se, ok := err.(*netserve.StatusError)
			if !ok {
				t.Fatal(err)
			}
			refused = se
			break
		}
	}
	if refused == nil {
		t.Fatal("no request was rate limited")
	}
	if refused.Code != 429 || refused.RetryAfter < 1 {
		t.Fatalf("refusal %+v", refused)
	}
}

// The load-shedding acceptance criterion: with workers saturated and
// the admission queue full, an excess exec is refused with 429 +
// Retry-After — fast, not after queueing behind the spinners.
func TestQueueFullShedsFast(t *testing.T) {
	cl, _, _ := startServer(t,
		serve.Config{Workers: 1, QueueCap: 1},
		netserve.Config{Rate: 1000, Burst: 1000})

	spin := buildBlob(t, `int main(void){ for(;;); return 0; }`)
	up, err := cl.Upload(spin)
	if err != nil {
		t.Fatal(err)
	}

	// Two spinners: one on the worker, one filling the queue. Their
	// deadline keeps the test bounded.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", DeadlineMs: 3000})
		}()
	}
	// Wait until both are admitted (submitted and not yet finished).
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := cl.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if snap.QueueDepth >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spinners never saturated the pool: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The acceptance budget is 50ms; the race detector slows the whole
	// process enough that only the order of magnitude is meaningful.
	budget := 50 * time.Millisecond
	if raceEnabled {
		budget = time.Second
	}
	start := time.Now()
	_, err = cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", DeadlineMs: 3000})
	elapsed := time.Since(start)
	se, ok := err.(*netserve.StatusError)
	if !ok {
		t.Fatalf("saturated exec: %v", err)
	}
	if se.Code != 429 || se.RetryAfter < 1 {
		t.Fatalf("saturated exec refusal: %+v", se)
	}
	if elapsed > budget {
		t.Fatalf("shedding took %v, want <%v", elapsed, budget)
	}
	wg.Wait()
}

// Drain mode: health flips to 503, new work is refused, and work
// already admitted runs to completion.
func TestDrainFinishesInFlight(t *testing.T) {
	cl, h, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{})

	// A module slow enough to still be running when we drain, but small
	// enough to finish well inside its deadline — an order of magnitude
	// smaller under the race detector, which slows simulation ~10x.
	iters := 20000000
	if raceEnabled {
		iters = 2000000
	}
	slow := buildBlob(t, fmt.Sprintf(`int main(void){ int i, a = 0; for (i = 0; i < %d; i++) a ^= i; return 5; }`, iters))
	up, err := cl.Upload(slow)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *netserve.ExecResponse
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", DeadlineMs: 30000})
		done <- outcome{res, err}
	}()
	// Wait for the job to be on the worker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := cl.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if snap.QueueDepth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	h.SetDraining(true)
	if err := cl.Health(); err == nil {
		t.Fatal("healthz still ok while draining")
	} else if se, ok := err.(*netserve.StatusError); !ok || se.Code != 503 {
		t.Fatalf("draining health: %v", err)
	}
	if _, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips"}); err == nil {
		t.Fatal("exec accepted while draining")
	} else if se, ok := err.(*netserve.StatusError); !ok || se.Code != 503 {
		t.Fatalf("draining exec: %v", err)
	}
	if _, err := cl.Upload(slow); err == nil {
		t.Fatal("upload accepted while draining")
	}

	// The in-flight job still finishes — cleanly, with its real exit
	// code, not killed by the drain.
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight job failed during drain: %v", out.err)
	}
	if out.res.Status != "ok" || out.res.Exit != 5 {
		t.Fatalf("in-flight job: %+v", out.res)
	}
	// And the pool closes without incident afterwards.
	srv.Close()
}

// Deadlines map onto the interrupt hook: a spinner with a short
// deadline comes back as a contained failure, promptly.
func TestDeadlineInterruptsRunaway(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	spin := buildBlob(t, `int main(void){ for(;;); return 0; }`)
	up, err := cl.Upload(spin)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "sparc", DeadlineMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "error" || !strings.Contains(res.Err, "interrupted") {
		t.Fatalf("runaway outcome: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Timeouts != 1 {
		t.Fatalf("timeout not counted: %+v", snap)
	}
}

// A checked exec that blows its deadline makes no parity claim, and
// the interpreter reference is not run for it: the reply comes back
// promptly instead of after the reference spins to its step budget.
func TestCheckSkipsReferenceForFailedJob(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	spin := buildBlob(t, `int main(void){ for(;;); return 0; }`)
	up, err := cl.Upload(spin)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", DeadlineMs: 50, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("checked runaway replied after %v", elapsed)
	}
	if res.Status != "error" || res.Parity == nil || *res.Parity {
		t.Fatalf("checked runaway outcome: %+v", res)
	}
}

// The module registry is bounded: uploading past MaxModules evicts
// the oldest entry.
func TestModuleRegistryBounded(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1},
		netserve.Config{MaxModules: 2})
	var hashes []string
	for i := 0; i < 3; i++ {
		blob := buildBlob(t, fmt.Sprintf(`int main(void){ return %d; }`, i+1))
		up, err := cl.Upload(blob)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, up.Hash)
	}
	if _, err := cl.Exec(netserve.ExecRequest{Module: hashes[0], Target: "mips"}); err == nil {
		t.Fatal("evicted module still executable")
	} else if se, ok := err.(*netserve.StatusError); !ok || se.Code != 404 {
		t.Fatalf("evicted module: %v", err)
	}
	for i, h := range hashes[1:] {
		res, err := cl.Exec(netserve.ExecRequest{Module: h, Target: "mips"})
		if err != nil || res.Exit != int32(i+2) {
			t.Fatalf("retained module %d: %+v err=%v", i+1, res, err)
		}
	}
}

// The upload size limit binds on the one upload route there is: a body
// a byte over MaxModuleBytes is a 413 that registers nothing, and no
// second route takes it instead.
func TestUploadSizeLimit(t *testing.T) {
	blob := buildBlob(t, `int main(void){ return 3; }`)
	cl, _, _ := startServer(t, serve.Config{Workers: 1},
		netserve.Config{MaxModuleBytes: int64(len(blob)) - 1})
	_, err := cl.Upload(blob)
	var se *netserve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %v, want a 413", err)
	}
	_, err = cl.Exec(netserve.ExecRequest{Module: wire.Hash(blob), Target: "mips"})
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("exec after refused upload: %v, want a 404", err)
	}
	resp, err := http.Post(cl.Base+"/v1/modules/batch", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/modules/batch: status %d, want 404", resp.StatusCode)
	}
}

// Decoded uploads are real modules: what the server registers is
// byte-for-byte the module the client built.
func TestUploadPreservesModule(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: `
char msg[6] = "hello";
int main(void){ return msg[1]; }`}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if up.Insts != len(mod.Text) || up.DataLen != len(mod.Data) ||
		up.BSSSize != mod.BSSSize || up.Entry != mod.Entry {
		t.Fatalf("upload response %+v does not match module", up)
	}
	res, err := cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "x86", Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != int32('e') || res.Parity == nil || !*res.Parity {
		t.Fatalf("exec %+v", res)
	}
}
