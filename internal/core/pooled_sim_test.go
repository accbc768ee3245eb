package core_test

import (
	"fmt"
	"io"
	"testing"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/ovm"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// The warm-cache serving path — acquire a pooled host, run a cached
// translation, release — must not allocate at all. This is the
// regression guard behind omnimark's exact core.exec_allocs_per_op; any
// new allocation on this path shows up here before it shows up in a
// benchmark run. Jobs alternate between trivload and compress — 21
// against ~3 900 native instructions — on one host, so the simulator's
// lowering storage must survive Release and serve a shorter program
// after a longer one. Output goes to io.Discard: captured output is a
// string the job hands back, and compress prints.
func TestPooledExecAllocFree(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mach := target.MIPSMachine()
	triv, trivProg := pooledJob(t, mach, []core.SourceFile{{Name: "p.c", Src: "int main(void){ return 0; }"}})
	files, err := bench.Sources("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	comp, compProg := pooledJob(t, mach, files)
	if len(compProg.Code) <= len(trivProg.Code) {
		t.Fatalf("compress is %d instructions, trivload %d: the alternation proves nothing", len(compProg.Code), len(trivProg.Code))
	}
	var runErr error
	run := func(mod *ovm.Module, prog *target.Program) *core.Host {
		h, err := core.AcquireHost(mod, core.RunConfig{Out: io.Discard})
		if err != nil {
			runErr = err
			return nil
		}
		res, err := h.RunProgram(mach, prog)
		h.Release()
		if err != nil {
			runErr = err
		} else if res.Faulted {
			runErr = fmt.Errorf("%s", res.Fault)
		}
		return h
	}
	if a, b := run(triv, trivProg), run(comp, compProg); a != b {
		t.Fatal("trivload and compress did not share a pooled host; pick programs of one size class")
	}
	avg := testing.AllocsPerRun(20, func() {
		run(triv, trivProg)
		run(comp, compProg)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg != 0 {
		t.Fatalf("pooled execute path allocates %.2f allocs per trivload+compress pair, want 0", avg)
	}
}

func pooledJob(t *testing.T, mach *target.Machine, files []core.SourceFile) (*ovm.Module, *target.Program) {
	t.Helper()
	mod, err := core.BuildC(files, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(mod, mach, core.SegInfoFor(mod, core.RunConfig{}), translate.Paper(true))
	if err != nil {
		t.Fatal(err)
	}
	return mod, prog
}

// What runs is what was verified: the simulator lowers the Program it
// is handed on every run, so a copy of a verified Program with its Code
// swapped for a tampered slice runs the tampered code, even on the host
// that just ran the original — and so does the original once its Code
// is edited in place. Here one sandbox mask is stripped from a store
// through a wild pointer: the honest run's store lands in the data
// segment, each tampered run's outside it. Anyone caching a lowered
// form on the Program, or by its address, breaks this test.
func TestPooledHostRunsTamperedCode(t *testing.T) {
	src := "int main(void) { *(int *)0x70000000 = 5; return 0; }"
	for _, m := range target.Machines() {
		mod, honest := pooledJob(t, m, []core.SourceFile{{Name: "w.c", Src: src}})
		tampered := *honest
		tampered.Code = append([]target.Inst(nil), honest.Code...)

		var outside []uint32
		var lo, hi uint32
		h, err := core.AcquireHost(mod, core.RunConfig{StoreTrace: func(addr, size uint32, faulted bool) {
			if addr < lo || addr+size > hi {
				outside = append(outside, addr)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi = h.Lay.Seg.Base, h.Lay.Seg.End()
		if res, err := h.RunProgram(m, honest); err != nil || res.Faulted || len(outside) != 0 {
			t.Fatalf("%s: honest run: %+v, %v, stores outside the segment at %#x", m.Name, res, err, outside)
		}
		// The copy, then the original edited in place.
		for _, prog := range []*target.Program{&tampered, honest} {
			stripMask(t, m, prog.Code)
			outside = nil
			res, err := h.RunProgram(m, prog)
			if err != nil {
				t.Fatalf("%s: tampered run: %v", m.Name, err)
			}
			if len(outside) != 1 || !res.Faulted {
				t.Errorf("%s: tampered run stored outside the segment at %#x (faulted=%v); want exactly the stripped store, refused",
					m.Name, outside, res.Faulted)
			}
		}
		h.Release()
	}
}

// stripMask turns the first sandboxing mask into a plain move of the
// unchecked address, failing the test if there is none. (The rebase that follows, an or on MIPS and x86
// and the indexed store's base on SPARC and PPC, stays: 0x70000000
// already has the segment's bit set, and base+0x70000000 is outside.)
func stripMask(t *testing.T, m *target.Machine, code []target.Inst) {
	for i := range code {
		in := &code[i]
		if in.Cat == target.CatSFI && in.Rd == m.SFIAddr && (in.Op == target.And || in.Op == target.AndI) {
			*in = target.Inst{Op: target.Mov, Rd: in.Rd, Rs1: in.Rs1, Rs2: target.NoReg, Cat: in.Cat, Src: in.Src}
			return
		}
	}
	t.Fatalf("%s: no sandboxing mask to strip", m.Name)
}
