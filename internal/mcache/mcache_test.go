package mcache_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/ovm"
	"omniware/internal/target"
	"omniware/internal/translate"
)

func buildMod(t *testing.T, src string) *ovm.Module {
	t.Helper()
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

const prog1 = `
int g[64];
int main(void) {
	int i, acc = 0;
	for (i = 0; i < 64; i++) { g[i] = i * 3; acc += g[i]; }
	_print_int(acc);
	return acc & 0xff;
}`

func TestHitMissAndSharing(t *testing.T) {
	mod := buildMod(t, prog1)
	c := mcache.New(0)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	p1, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Error("first lookup reported as served from cache")
	}
	p2, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !served || p2 != p1 {
		t.Errorf("second lookup not a hit on the same program (served=%v)", served)
	}
	s := c.Stats()
	if s.Lookups != 2 || s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats %+v", s)
	}

	// The cached program runs correctly in a fresh host and matches the
	// interpreter.
	h, err := core.NewHost(mod, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.RunInterp()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := core.NewHost(mod, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h2.RunProgram(m, p1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulted || res.ExitCode != ref.ExitCode || h2.Output() != h.Output() {
		t.Errorf("cached program diverged: %+v vs %+v", res, ref)
	}
}

func TestKeySeparation(t *testing.T) {
	mod := buildMod(t, prog1)
	other := buildMod(t, `int main(void){ return 7; }`)
	c := mcache.New(0)
	si := core.SegInfoFor(mod, core.RunConfig{})
	sio := core.SegInfoFor(other, core.RunConfig{})
	hoist := translate.Paper(true)
	hoist.SFIHoist = true

	lookups := []struct {
		mod *ovm.Module
		m   *target.Machine
		si  translate.SegInfo
		opt translate.Options
	}{
		{mod, target.MIPSMachine(), si, translate.Paper(true)},
		{mod, target.SPARCMachine(), si, translate.Paper(true)},   // machine differs
		{mod, target.MIPSMachine(), si, hoist},                    // options differ
		{other, target.MIPSMachine(), sio, translate.Paper(true)}, // module differs
	}
	for i, l := range lookups {
		if _, served, err := c.Translate(l.mod, l.m, l.si, l.opt); err != nil || served {
			t.Errorf("lookup %d: served=%v err=%v (want distinct miss)", i, served, err)
		}
	}
	if s := c.Stats(); s.Misses != 4 || s.Entries != 4 {
		t.Errorf("stats %+v", s)
	}
}

func TestUnsandboxedRefused(t *testing.T) {
	mod := buildMod(t, prog1)
	c := mcache.New(0)
	si := core.SegInfoFor(mod, core.RunConfig{})
	if _, _, err := c.Translate(mod, target.MIPSMachine(), si, translate.Paper(false)); !errors.Is(err, mcache.ErrUnsandboxed) {
		t.Errorf("non-SFI translation not refused: %v", err)
	}
	if err := admitForeign(c, mod, target.MIPSMachine(), si, translate.Paper(false), &target.Program{}); !errors.Is(err, mcache.ErrUnsandboxed) {
		t.Errorf("non-SFI admission not refused: %v", err)
	}
}

func TestLRUEvictionByCodeSize(t *testing.T) {
	srcs := []string{
		`int main(void){ return 1; }`,
		`int main(void){ int i, a = 0; for (i = 0; i < 9; i++) a += i; return a; }`,
		`int g[8]; int main(void){ int i; for (i = 0; i < 8; i++) g[i] = i; return g[3]; }`,
	}
	mods := make([]*ovm.Module, len(srcs))
	sis := make([]translate.SegInfo, len(srcs))
	m := target.MIPSMachine()
	opt := translate.Paper(true)
	var sizes []int64
	for i, src := range srcs {
		mods[i] = buildMod(t, src)
		sis[i] = core.SegInfoFor(mods[i], core.RunConfig{})
		p, err := translate.Translate(mods[i], m, sis[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int64(len(p.Code))*40)
	}
	// Budget for roughly two of the three programs.
	limit := sizes[0] + sizes[1] + sizes[2] - sizes[0]/2
	c := mcache.New(limit)
	for i := range mods {
		if _, _, err := c.Translate(mods[i], m, sis[i], opt); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under limit %d: %+v", limit, s)
	}
	if s.CodeBytes > limit {
		t.Errorf("cache over budget: %d > %d", s.CodeBytes, limit)
	}
	// Most recently used entry must still be resident.
	if _, served, err := c.Translate(mods[len(mods)-1], m, sis[len(mods)-1], opt); err != nil || !served {
		t.Errorf("most recent entry evicted (served=%v err=%v)", served, err)
	}
}

func TestSingleflightDeduplication(t *testing.T) {
	mod := buildMod(t, prog1)
	c := mcache.New(0)
	m := target.PPCMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	const n = 16
	var wg sync.WaitGroup
	progs := make([]*target.Program, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], _, errs[i] = c.Translate(mod, m, si, opt)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different program", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("%d translations for one key (stats %+v)", s.Misses, s)
	}
	if s.Hits+s.Coalesced != n-1 {
		t.Errorf("hits %d + coalesced %d != %d", s.Hits, s.Coalesced, n-1)
	}
}

// admitForeign offers prog to the cache the way production receives a
// translation it did not make: AdmitKeyed under the explicit key, with
// the correspondence check wired to a local retranslation.
func admitForeign(c *mcache.Cache, mod *ovm.Module, m *target.Machine, si translate.SegInfo, opt translate.Options, prog *target.Program) error {
	return c.AdmitKeyed(mcache.Key(mod, m, si, opt), prog, func() (*target.Program, error) {
		return translate.Translate(mod, m, si, opt)
	})
}

func TestInsertRejectsTamperedProgram(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := mcache.New(0)
	// The honest translation is admitted.
	if err := admitForeign(c, mod, m, si, opt, prog); err != nil {
		t.Fatalf("clean translation rejected: %v", err)
	}
	// Strip one sandboxing mask: admission must refuse it.
	tampered, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range tampered.Code {
		in := &tampered.Code[i]
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			in.Op = target.Nop
			in.Rd, in.Rs1, in.Rs2 = target.NoReg, target.NoReg, target.NoReg
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no sandboxing mask found to strip")
	}
	err = admitForeign(c, mod, m, si, opt, tampered)
	if err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Fatalf("tampered program admitted: %v", err)
	}
	if s := c.Stats(); s.Rejected == 0 {
		t.Errorf("rejection not counted: %+v", s)
	}
}
