package netserve_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/wire"
)

// admitSeen is everything the admission path leaves behind for one
// blob: what the registry holds under the name (the bytes it would
// serve a peer), the audit gate's counters, and how many samples the
// decode and audit stage histograms took.
type admitSeen struct {
	Registered  bool
	Pass        uint64
	Warns       uint64
	Rejects     uint64
	DecodeCount uint64
	AuditCount  uint64
}

// The two roads into the registry — upload, and peer fill on an exec
// miss — are one admission path: the same blob under the same audit
// mode leaves the same registry entry, the same audit counters and the
// same stage-histogram counts whichever road carried it, a recursive
// module under enforce is a 422 on both roads, and a decode that fails
// is still a decode the StageDecode histogram saw.
func TestAdmissionIsOnePath(t *testing.T) {
	chain := buildBlob(t, chainSrc)
	rec := buildBlob(t, recSrc)
	garbage := []byte("OMW? not a module")

	type road struct {
		name string
		// send carries blob into cl's node; hooks is that node's view of
		// the cluster, for the road that arrives through it.
		send func(cl *netserve.Client, hooks *fakeHooks, blob []byte, hash string) error
	}
	roads := []road{
		{"upload", func(cl *netserve.Client, _ *fakeHooks, blob []byte, _ string) error {
			_, err := cl.Upload(blob)
			return err
		}},
		{"peerfill", func(cl *netserve.Client, hooks *fakeHooks, blob []byte, hash string) error {
			hooks.mods[hash] = blob
			_, err := cl.Exec(netserve.ExecRequest{Module: hash, Target: "mips"})
			return err
		}},
	}

	cases := []struct {
		name, mode string
		blob       []byte
		status     int // 0 = admitted; otherwise both roads refuse, upload with this status
		want       admitSeen
	}{
		{"off/chain", netserve.AuditOff, chain, 0, admitSeen{Registered: true, DecodeCount: 1}},
		{"off/recursive", netserve.AuditOff, rec, 0, admitSeen{Registered: true, DecodeCount: 1}},
		{"warn/chain", netserve.AuditWarn, chain, 0, admitSeen{Registered: true, Pass: 1, DecodeCount: 1, AuditCount: 1}},
		{"warn/recursive", netserve.AuditWarn, rec, 0, admitSeen{Registered: true, Warns: 1, DecodeCount: 1, AuditCount: 1}},
		{"enforce/chain", netserve.AuditEnforce, chain, 0, admitSeen{Registered: true, Pass: 1, DecodeCount: 1, AuditCount: 1}},
		{"enforce/recursive", netserve.AuditEnforce, rec, http.StatusUnprocessableEntity, admitSeen{Rejects: 1, DecodeCount: 1, AuditCount: 1}},
		{"enforce/undecodable", netserve.AuditEnforce, garbage, http.StatusBadRequest, admitSeen{DecodeCount: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The name the blob travels under: its content hash, or for
			// bytes that are no module, the hash a lying peer files them
			// under.
			hash := wire.Hash(tc.blob)
			var canon []byte
			if mod, err := wire.DecodeModule(tc.blob); err == nil {
				if canon, err = wire.EncodeModule(mod); err != nil {
					t.Fatal(err)
				}
				hash = wire.Hash(canon)
			}
			for _, rd := range roads {
				hooks := &fakeHooks{mods: map[string][]byte{}}
				cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
					Peer:  hooks,
					Audit: netserve.AuditConfig{Mode: tc.mode},
					Logf:  func(string, ...any) {},
				})
				err := rd.send(cl, hooks, tc.blob, hash)
				var se *netserve.StatusError
				switch {
				case tc.status == 0 && err != nil:
					t.Fatalf("%s: refused: %v", rd.name, err)
				case tc.status != 0 && !errors.As(err, &se):
					t.Fatalf("%s: want a refusal, got %v", rd.name, err)
				case tc.status == http.StatusUnprocessableEntity && se.Code != tc.status:
					t.Errorf("%s: status %d, want 422 (%s)", rd.name, se.Code, se.Message)
				case tc.status == http.StatusBadRequest && rd.name != "peerfill" && se.Code != tc.status:
					// Peer fill discards bad bytes as a miss: the exec is a 404.
					t.Errorf("%s: status %d, want 400 (%s)", rd.name, se.Code, se.Message)
				}

				snap := srv.Snapshot()
				got := admitSeen{
					Pass:        snap.AuditPass,
					DecodeCount: snap.Stages["decode"].Count,
					AuditCount:  snap.Stages["audit"].Count,
				}
				for _, n := range snap.AuditWarns {
					got.Warns += n
				}
				for _, n := range snap.AuditRejects {
					got.Rejects += n
				}
				// The registry entry, read the way a peer would.
				served, _, _, perr := cl.PeerModule(hash, "test", noOrg)
				got.Registered = perr == nil
				if got.Registered && !bytes.Equal(served, canon) {
					t.Errorf("%s: registry serves %d bytes that are not the canonical encoding", rd.name, len(served))
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s: admission left %+v, want %+v", rd.name, got, tc.want)
				}
			}
		})
	}
}

// isNotFound reports whether err is the server's 404.
func isNotFound(err error) bool {
	var se *netserve.StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// A module's audit report lives and dies with its registry entry: it
// leaves when the registry evicts the module, an upload of a registered
// module reuses it, off mode derives it on the first GET and keeps it,
// and a module the gate refuses leaves nothing behind. The audit stage
// histogram takes one sample per derivation, so its count is the
// number of times a report was derived.
func TestAuditReportLivesInRegistry(t *testing.T) {
	audits := func(srv *serve.Server) uint64 { return srv.Snapshot().Stages["audit"].Count }

	t.Run("evicted-with-module", func(t *testing.T) {
		cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
			Rate: 1e9, Burst: 1e9,
			Audit: netserve.AuditConfig{Mode: netserve.AuditWarn},
		})
		total := netserve.DefaultMaxModules + 20
		hashes := make([]string, total)
		for i := range hashes {
			up, err := cl.Upload(buildBlob(t, fmt.Sprintf(`int main(void){ return %d; }`, i)))
			if err != nil {
				t.Fatalf("upload %d: %v", i, err)
			}
			hashes[i] = up.Hash
		}
		if _, err := cl.Audit(hashes[0]); !isNotFound(err) {
			t.Errorf("report for a module the registry evicted: %v, want a 404", err)
		}
		rep, err := cl.Audit(hashes[total-1])
		if err != nil || rep.Hash != hashes[total-1] {
			t.Fatalf("newest module's report: %v, %v", rep, err)
		}
		if n := audits(srv); n != uint64(total) {
			t.Errorf("%d modules uploaded and one report served: %d derivations, want %d", total, n, total)
		}
	})

	t.Run("reused-on-reupload", func(t *testing.T) {
		cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
			Audit: netserve.AuditConfig{Mode: netserve.AuditWarn},
		})
		blob := buildBlob(t, chainSrc)
		first, err := cl.Upload(blob)
		if err != nil {
			t.Fatal(err)
		}
		again, err := cl.Upload(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Replaced || again.Audit == nil || again.Audit.Digest != first.Audit.Digest {
			t.Errorf("second upload: %+v, want the first upload's report (digest %s)", again, first.Audit.Digest)
		}
		snap := srv.Snapshot()
		if snap.Stages["audit"].Count != 1 || snap.AuditPass != 2 {
			t.Errorf("one module uploaded twice: %d derivations, audit_pass %d; want 1 and 2",
				snap.Stages["audit"].Count, snap.AuditPass)
		}
	})

	t.Run("off-mode-derives-once", func(t *testing.T) {
		cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
		up, err := cl.Upload(buildBlob(t, chainSrc))
		if err != nil {
			t.Fatal(err)
		}
		if n := audits(srv); n != 0 {
			t.Fatalf("off mode derived %d reports at upload", n)
		}
		var digests []string
		for i := 0; i < 2; i++ {
			rep, err := cl.Audit(up.Hash)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, rep.Digest())
		}
		if n := audits(srv); n != 1 || digests[0] != digests[1] {
			t.Errorf("two GETs: %d derivations, digests %v; want one derivation, one report", n, digests)
		}
	})

	t.Run("enforce-refusal-keeps-nothing", func(t *testing.T) {
		cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
			Audit: netserve.AuditConfig{Mode: netserve.AuditEnforce},
		})
		blob := buildBlob(t, recSrc)
		for i := 0; i < 2; i++ {
			if _, err := cl.Upload(blob); err == nil {
				t.Fatal("enforce mode admitted a recursive module")
			}
		}
		if _, err := cl.Audit(wire.Hash(blob)); !isNotFound(err) {
			t.Errorf("report for a refused module: %v, want a 404", err)
		}
		if n := audits(srv); n != 2 {
			t.Errorf("a refused module uploaded twice: %d derivations, want 2 (nothing kept)", n)
		}
	})
}

// GET /v1/audit on an off-mode module races uploads that evict and
// re-register it: every answer is that module's report or a 404, and
// the on-demand derivation's write into the entry is race-free.
func TestAuditGetRacesEviction(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Rate: 1e9, Burst: 1e9, MaxModules: 2,
	})
	blob := buildBlob(t, chainSrc)
	fillers := [][]byte{
		buildBlob(t, `int main(void){ return 1; }`),
		buildBlob(t, `int main(void){ return 2; }`),
	}
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rep, err := cl.Audit(up.Hash)
				switch {
				case err == nil && rep.Hash != up.Hash:
					errs <- fmt.Errorf("GET %s served the report for %s", up.Hash, rep.Hash)
					return
				case err != nil && !isNotFound(err):
					errs <- err
					return
				}
			}
		}()
	}
	// Two fresh fillers evict the module from a two-slot registry; the
	// third upload registers it again.
	for round := 0; round < 5; round++ {
		for _, b := range append(fillers, blob) {
			if _, err := cl.Upload(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := cl.Audit(up.Hash); err != nil {
		t.Errorf("registered module's report: %v", err)
	}
}
