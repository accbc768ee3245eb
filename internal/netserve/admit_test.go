package netserve_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"omniware/internal/mcache"
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

// The audit memo is bounded like the registry it serves: a client
// uploading distinct modules forever grows neither.
func TestAuditMemoBounded(t *testing.T) {
	cl, _, srv := startServer(t, serve.Config{Workers: 1}, netserve.Config{
		Rate: 1e9, Burst: 1e9,
		Audit: netserve.AuditConfig{Mode: netserve.AuditWarn},
	})
	const extra = 20
	total := netserve.DefaultMaxModules + extra
	hashes := make([]string, total)
	for i := range hashes {
		blob := buildBlob(t, fmt.Sprintf(`int main(void){ return %d; }`, i))
		up, err := cl.Upload(blob)
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		hashes[i] = up.Hash
	}
	memo := 0
	for _, h := range hashes {
		if _, ok := srv.Cache().AuditByHash(h); ok {
			memo++
		}
	}
	if st := srv.Cache().Stats(); st.Audits != uint64(total) {
		t.Fatalf("%d modules uploaded, %d audited", total, st.Audits)
	}
	if memo != mcache.AuditMemoCap {
		t.Errorf("audit memo holds %d of %d audited modules, want the cap %d", memo, total, mcache.AuditMemoCap)
	}
	// The newest reports are the ones kept; the oldest left with the
	// modules the registry evicted.
	if _, ok := srv.Cache().AuditByHash(hashes[total-1]); !ok {
		t.Error("newest module's report not memoized")
	}
	if _, err := cl.Audit(hashes[0]); err == nil {
		t.Error("audit report served for a module the registry evicted")
	}
}
