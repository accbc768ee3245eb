package mcache_test

import (
	"strings"
	"testing"

	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
)

func openStore(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// Audit memoizes by module hash, writes through to the persistent
// tier, and — the re-audit invariant — never trusts a stored report: a
// tampered blob is quarantined on the next derivation and the fresh
// report wins.
func TestAuditMemoizeAndPersist(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	c := openCache(t, dir, &logged)
	mod := buildMod(t, prog1)
	hash := mcache.ModuleHash(mod)

	r1, err := c.Audit(mod, hash)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Audit(mod, hash)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("second Audit not memoized")
	}
	st := c.Stats()
	if st.Audits != 1 || st.AuditHits != 1 || st.AuditDiskWrites != 1 {
		t.Fatalf("stats = %+v, want 1 audit, 1 hit, 1 disk write", st)
	}
	if got, ok := c.AuditByHash(hash); !ok || got != r1 {
		t.Fatalf("AuditByHash miss for %s", hash)
	}
	if _, ok := c.AuditByHash("nope"); ok {
		t.Fatalf("AuditByHash hit for unknown hash")
	}

	// "Restart": a fresh cache over the same directory re-derives and
	// confirms the stored blob silently.
	var logged2 []string
	c2 := openCache(t, dir, &logged2)
	if _, err := c2.Audit(mod, hash); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.AuditQuarantines != 0 || st.AuditDiskWrites != 0 {
		t.Fatalf("clean restart stats = %+v, want no quarantines, no rewrites", st)
	}

	// Tamper with the stored audit (valid envelope, altered report):
	// the next derivation must quarantine it, count it, and rewrite.
	store := openStore(t, dir)
	if err := store.PutAudit(hash, []byte(`{"hash":"forged"}`)); err != nil {
		t.Fatal(err)
	}
	var logged3 []string
	c3 := openCache(t, dir, &logged3)
	r3, err := c3.Audit(mod, hash)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Digest() != r1.Digest() {
		t.Fatalf("derived report changed across processes")
	}
	st3 := c3.Stats()
	if st3.AuditQuarantines != 1 || st3.AuditDiskWrites != 1 {
		t.Fatalf("tamper stats = %+v, want 1 quarantine, 1 rewrite", st3)
	}
	found := false
	for _, l := range logged3 {
		if strings.Contains(l, "disagrees with re-derivation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine not logged: %v", logged3)
	}
}

func TestAuditHashMismatchRefused(t *testing.T) {
	c := mcache.New(0)
	mod := buildMod(t, prog1)
	if _, err := c.Audit(mod, "not-the-hash"); err == nil {
		t.Fatal("Audit accepted a wrong hash")
	}
	if _, ok := c.AuditByHash("not-the-hash"); ok {
		t.Fatal("wrong-hash report was memoized")
	}
}
