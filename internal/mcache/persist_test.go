package mcache_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/ovm"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// openCache builds a disk-backed cache over dir, capturing quarantine
// logs into logged.
func openCache(t *testing.T, dir string, logged *[]string) *mcache.Cache {
	t.Helper()
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return mcache.NewWith(mcache.Config{
		Disk: store,
		Logf: func(format string, args ...any) {
			*logged = append(*logged, fmt.Sprintf(format, args...))
		},
	})
}

// The restart-durability contract, end to end: populate a disk-backed
// cache, "restart" (new cache, same directory), corrupt one entry —
// the intact entries are served as disk hits without retranslation,
// the corrupted entry is quarantined and logged, and everything served
// passed the verifier again on the way in.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	srcs := []string{
		`int main(void){ return 11; }`,
		`int main(void){ int i, a = 0; for (i = 0; i < 6; i++) a += i; return a; }`,
		`int g[4]; int main(void){ g[1] = 9; return g[1]; }`,
	}
	mods := make([]*ovm.Module, len(srcs))
	sis := make([]translate.SegInfo, len(srcs))
	m := target.MIPSMachine()
	opt := translate.Paper(true)

	var log1 []string
	c1 := openCache(t, dir, &log1)
	for i, src := range srcs {
		mods[i] = buildMod(t, src)
		sis[i] = core.SegInfoFor(mods[i], core.RunConfig{})
		if _, served, err := c1.Translate(mods[i], m, sis[i], opt); err != nil || served {
			t.Fatalf("populate %d: served=%v err=%v", i, served, err)
		}
	}
	if s := c1.Stats(); s.DiskWrites != 3 || s.Misses != 3 {
		t.Fatalf("populate stats %+v", s)
	}
	if len(log1) != 0 {
		t.Fatalf("healthy populate logged: %v", log1)
	}

	// "Stop the daemon": drop c1. Corrupt exactly one on-disk entry.
	files, err := filepath.Glob(filepath.Join(dir, "entries", "*.owp"))
	if err != nil || len(files) != 3 {
		t.Fatalf("entry files %v (err=%v)", files, err)
	}
	victim := files[1]
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-7] ^= 0x20
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh cache over the same directory knows nothing
	// in memory.
	var log2 []string
	c2 := openCache(t, dir, &log2)
	var diskHits, retranslated int
	for i := range mods {
		prog, served, err := c2.Translate(mods[i], m, sis[i], opt)
		if err != nil {
			t.Fatalf("lookup %d after restart: %v", i, err)
		}
		if served {
			diskHits++
		} else {
			retranslated++
		}
		// Whatever path it took, the program must run correctly in a
		// fresh host — nothing unverified reaches core.RunProgram.
		h, err := core.NewHost(mods[i], core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.RunInterp()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := core.NewHost(mods[i], core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h2.RunProgram(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faulted || res.ExitCode != ref.ExitCode {
			t.Fatalf("module %d diverged after restart: %+v vs %+v", i, res, ref)
		}
	}
	if diskHits != 2 || retranslated != 1 {
		t.Fatalf("after restart: %d disk hits, %d retranslations (want 2, 1)", diskHits, retranslated)
	}
	s := c2.Stats()
	if s.DiskHits != 2 || s.Misses != 1 || s.DiskQuarantines != 1 {
		t.Fatalf("restart stats %+v", s)
	}
	// The corrupted entry was quarantined — moved aside, not deleted,
	// and replaced by the fresh retranslation's write-through.
	qs, _ := filepath.Glob(filepath.Join(dir, diskstore.QuarantineDir, "*.owp"))
	if len(qs) != 1 {
		t.Fatalf("%d quarantined files, want 1", len(qs))
	}
	var found bool
	for _, line := range log2 {
		if strings.Contains(line, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine not logged: %v", log2)
	}
	// A third incarnation sees all three entries warm again.
	var log3 []string
	c3 := openCache(t, dir, &log3)
	for i := range mods {
		if _, served, err := c3.Translate(mods[i], m, sis[i], opt); err != nil || !served {
			t.Fatalf("lookup %d after heal: served=%v err=%v", i, served, err)
		}
	}
	if s := c3.Stats(); s.DiskHits != 3 || s.Misses != 0 {
		t.Fatalf("healed stats %+v", s)
	}
}

// A disk entry whose bytes are internally consistent (valid checksum,
// valid encoding) but whose program fails the SFI verifier — the
// tampered-at-rest case — must be quarantined on load, never served.
func TestTamperedDiskEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	mod := buildMod(t, `int g[8]; int main(void){ int i; for (i = 0; i < 8; i++) g[i] = i; return g[2]; }`)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	var logs []string
	c1 := openCache(t, dir, &logs)
	if _, _, err := c1.Translate(mod, m, si, opt); err != nil {
		t.Fatal(err)
	}

	// Forge a perfectly well-formed entry whose program has one
	// sandbox mask stripped, and put it where the real one was. The
	// store itself accepts it — only the verifier can tell.
	tampered, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	stripped := false
	for i := range tampered.Code {
		in := &tampered.Code[i]
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			in.Op = target.Nop
			in.Rd, in.Rs1, in.Rs2 = target.NoReg, target.NoReg, target.NoReg
			stripped = true
			break
		}
	}
	if !stripped {
		t.Fatal("no sandbox mask to strip")
	}
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := mcache.Key(mod, m, si, opt)
	if err := store.Put(k, tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(k); err != nil {
		t.Fatalf("forged entry should pass integrity checks: %v", err)
	}

	// Restart. The lookup must refuse the forged entry, quarantine it,
	// and serve a fresh, verified translation instead.
	var logs2 []string
	c2 := openCache(t, dir, &logs2)
	prog, served, err := c2.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Fatal("forged entry was served from disk")
	}
	s := c2.Stats()
	if s.DiskQuarantines != 1 || s.Rejected != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if len(logs2) == 0 || !strings.Contains(strings.Join(logs2, "\n"), "quarantined") {
		t.Fatalf("tampering not logged: %v", logs2)
	}
	// The served program still has its masks.
	masked := false
	for _, in := range prog.Code {
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			masked = true
			break
		}
	}
	if !masked {
		t.Fatal("served program lost its sandbox masks")
	}
}

// A disk entry filed by another translator — under the previous key
// format or another translate.Version — is not this binary's
// translation, however well it verifies. The lookup must miss it and
// translate locally; the entry is left alone (no quarantine: it is
// some other binary's valid entry, not a bad one).
func TestOtherTranslatorDiskEntryMisses(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	want, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Contained, so it would pass the gate, but not what this
	// translator emits for the key: a stand-in for an older
	// translator's output.
	unsched := opt
	unsched.Schedule = false
	stale, err := translate.Translate(mod, m, si, unsched)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stale.Code, want.Code) {
		t.Fatal("stand-in program equals the current translation")
	}
	k := mcache.Key(mod, m, si, opt)
	for name, old := range map[string]string{"format-k1": previousKey(k), "translator": otherTranslatorKey(k)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := diskstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(old, stale); err != nil {
				t.Fatal(err)
			}
			var logs []string
			c := openCache(t, dir, &logs)
			prog, served, err := c.Translate(mod, m, si, opt)
			if err != nil {
				t.Fatal(err)
			}
			if served {
				t.Fatal("another translator's entry was served")
			}
			if !reflect.DeepEqual(prog.Code, want.Code) {
				t.Fatal("served program is not this translator's output")
			}
			if s := c.Stats(); s.Misses != 1 || s.DiskHits != 0 || s.DiskQuarantines != 0 || s.DiskWrites != 1 {
				t.Errorf("stats %+v", s)
			}
			if !store.Has(old) || !store.Has(k) {
				t.Error("the old entry and the new write-through must sit side by side")
			}
		})
	}
}
