package absint_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/seg"
	"omniware/internal/sfi"
	"omniware/internal/sfi/absint"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// harnessSrc is the module every differential host loads: small enough
// that a full run fits a tiny instruction budget, but exercising loops,
// an indirect call, and computed stores so mutation mode has real SFI
// sequences to corrupt.
const harnessSrc = `
int g[32];
int f(int x) { g[x & 31] = x; return x + 1; }
int (*fp)(int) = f;
int main(void) {
	int i, s = 0;
	for (i = 0; i < 8; i++) s += fp(i);
	g[0] = s;
	return s;
}`

// tharness is one target's differential rig: a live host whose segment
// the policy describes, the genuine translation of harnessSrc for
// mutation mode, and a rebindable store-trace sink for the executor
// oracle.
type tharness struct {
	m    *target.Machine
	host *core.Host
	pol  sfi.Policy
	base *target.Program
	sink func(addr, size uint32, faulted bool)
}

var (
	harnessOnce sync.Once
	harnessErr  error
	harnessMap  map[string]*tharness
)

// harnesses builds (once) a rig per target.
func harnesses(t testing.TB) map[string]*tharness {
	harnessOnce.Do(func() {
		mod, err := core.BuildC([]core.SourceFile{{Name: "h.c", Src: harnessSrc}}, cc.Options{OptLevel: 2})
		if err != nil {
			harnessErr = err
			return
		}
		harnessMap = map[string]*tharness{}
		for _, m := range target.Machines() {
			th := &tharness{m: m}
			cfg := core.RunConfig{
				MaxSteps: 5000,
				Out:      io.Discard,
			}
			cfg.StoreTrace = func(addr, size uint32, faulted bool) {
				if th.sink != nil {
					th.sink(addr, size, faulted)
				}
			}
			h, err := core.NewHost(mod, cfg)
			if err != nil {
				harnessErr = err
				return
			}
			th.host = h
			th.pol = sfi.PolicyFor(m, h.SegInfo())
			// A WRITABLE victim segment well away from the sandbox: the
			// segment layer would let an escaping store through to it,
			// so the oracle does not depend on everything else being
			// unmapped. Placed clear of the guard zones.
			vbase := uint32(0x60000000)
			segLo := h.Lay.Seg.Base
			segHi := segLo + h.Lay.Seg.Size()
			if vbase+0x10000 > segLo-0x10000 && vbase < segHi+0x10000 {
				vbase = 0x20000000
			}
			if _, err := h.Mem.Map("victim", vbase, 0x10000, seg.Read|seg.Write); err != nil {
				harnessErr = err
				return
			}
			prog, err := h.Translate(m, translate.Paper(true))
			if err != nil {
				harnessErr = err
				return
			}
			th.base = prog
			harnessMap[m.Name] = th
		}
	})
	if harnessErr != nil {
		t.Fatalf("building differential harness: %v", harnessErr)
	}
	return harnessMap
}

func harnessFor(t testing.TB, m *target.Machine) *tharness {
	return harnesses(t)[m.Name]
}

// contained runs prog in the harness host and reports every successful
// store that landed outside the sandbox's containment window — the
// executor oracle. The window is the data segment plus its guard zones
// (guard-zone displacements are admitted by design; real deployments
// leave those pages unmapped). Faults, exceptions, and budget
// exhaustion are contained outcomes; only a store the segment layer let
// through outside the window is an escape.
func (th *tharness) contained(prog *target.Program) (escapes []string) {
	lo := int64(th.pol.DataBase) - translate.GuardZone
	hi := int64(th.pol.DataBase) + int64(th.pol.DataMask) + translate.GuardZone
	th.sink = func(addr, size uint32, faulted bool) {
		if faulted {
			return
		}
		if int64(addr) < lo || int64(addr)+int64(size)-1 > hi {
			escapes = append(escapes, fmt.Sprintf("store %#x+%d outside [%#x,%#x]", addr, size, lo, hi))
		}
	}
	defer func() { th.sink = nil }()
	th.host.RunProgram(th.m, prog) // any error is a contained outcome
	return escapes
}

// ---------------------------------------------------------------------
// Program synthesis: a reduced per-target instruction alphabet and a
// builder that wraps a short sequence in a canonical sandbox stub.

// Branch-target placeholders resolved by buildSynth.
const (
	tgtNone = iota
	tgtSeq  // the sequence start (a back edge once inside the sequence)
	tgtHalt // the halt trailer
)

type synthInst struct {
	name string
	in   target.Inst
	tgt  int
}

// buildSynth assembles: [stub | seq... | Halt | Break], with the stub
// loading every dedicated register exactly as the translator's entry
// stub does, then jumping to the sequence. The omni-to-native map has
// four entries — sequence start, halt, and two trap slots — so indirect
// branches and exception delivery have real landing sites.
func buildSynth(th *tharness, seq []synthInst) *target.Program {
	m := th.m
	code := th.loadPinned(nil, 4)
	jIdx := len(code)
	code = append(code, target.Inst{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg})
	if m.HasDelaySlot {
		code = append(code, target.Inst{Op: target.Nop, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg})
	}
	seqStart := int32(len(code))
	code[jIdx].Target = seqStart
	for _, si := range seq {
		code = append(code, si.in)
	}
	haltIdx := int32(len(code))
	code = append(code, target.Inst{Op: target.Halt, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg})
	trapIdx := int32(len(code))
	code = append(code, target.Inst{Op: target.Break, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg})
	for i, si := range seq {
		switch si.tgt {
		case tgtSeq:
			code[int(seqStart)+i].Target = seqStart
		case tgtHalt:
			code[int(seqStart)+i].Target = haltIdx
		}
	}
	return &target.Program{
		Arch:         m.Arch,
		Code:         code,
		Entry:        0,
		OmniToNative: []int32{seqStart, haltIdx, trapIdx, trapIdx},
	}
}

// loadPinned appends the canonical stub's loads of the dedicated
// registers with their pinned values, for a program whose
// omni-to-native map has nOmni entries.
func (th *tharness) loadPinned(code []target.Inst, nOmni uint32) []target.Inst {
	m, p := th.m, th.pol
	load := func(rd target.Reg, val uint32) {
		if rd == target.NoReg {
			return
		}
		if m.Arch == target.X86 {
			code = append(code, target.Inst{Op: target.MovI, Rd: rd, Rs1: target.NoReg, Rs2: target.NoReg, Imm: int32(val)})
			return
		}
		code = append(code, target.Inst{Op: target.Lui, Rd: rd, Rs1: target.NoReg, Rs2: target.NoReg, Imm: int32(val >> 16)})
		if lo := val & 0xffff; lo != 0 {
			code = append(code, target.Inst{Op: target.OrI, Rd: rd, Rs1: rd, Rs2: target.NoReg, Imm: int32(lo)})
		}
	}
	load(m.SFIMask, p.DataMask)
	load(m.SFIBase, p.DataBase)
	load(m.CodeMask, nOmni-1)
	load(m.GP, p.GPValue)
	return code
}

// alphabet is the reduced per-target instruction set the fuzzer and the
// exhaustive enumerator draw from. It deliberately contains both the
// translator's sandbox idioms and near-miss variants (boundary and
// over-boundary displacements, unmasked bases, over-wide code masks) so
// the accept/reject frontier is inside the enumerated space. It
// excludes syscalls and writes to the stack pointer: both are outside
// what either verifier claims to prove (sp is trusted by name).
func alphabet(th *tharness) []synthInst {
	m, p := th.m, th.pol
	A := m.SFIAddr
	no := target.NoReg
	const g = translate.GuardZone
	R := m.OmniInt[2] // a general computation register
	ins := func(name string, in target.Inst) synthInst {
		return synthInst{name: name, in: in}
	}
	sw := func(name string, base target.Reg, imm int32) synthInst {
		return ins(name, target.Inst{Op: target.Sw, Rd: R, Rs1: base, Rs2: no, Imm: imm})
	}
	sp := m.OmniInt[14]
	var out []synthInst
	if m.Arch == target.X86 {
		out = append(out,
			ins("mask", target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: int32(p.DataMask)}),
			ins("rebase", target.Inst{Op: target.OrI, Rd: A, Rs1: A, Rs2: no, Imm: int32(p.DataBase)}),
			ins("codebound", target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: 3}),
			ins("codebound.over", target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: 7}),
			ins("memdst.in", target.Inst{Op: target.Add, Rd: no, Rs1: R, Rs2: no, Imm: int32(p.DataBase + 16), MemDst: true}),
			ins("memdst.out", target.Inst{Op: target.Add, Rd: no, Rs1: R, Rs2: no, Imm: 0x100, MemDst: true}),
		)
	} else {
		out = append(out,
			ins("mask", target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask}),
			ins("rebase", target.Inst{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase}),
			ins("codebound", target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.CodeMask}),
			ins("st.idx", target.Inst{Op: target.Sw, Rd: R, Rs1: m.SFIBase, Rs2: A, Indexed: true}),
			sw("st.gp", m.GP, 8),
			sw("st.gp.far", m.GP, 0x7000),
		)
	}
	out = append(out,
		ins("fold", target.Inst{Op: target.AddI, Rd: A, Rs1: A, Rs2: no, Imm: 8}),
		ins("fold.edge", target.Inst{Op: target.AddI, Rd: A, Rs1: A, Rs2: no, Imm: -g}),
		ins("fold.over", target.Inst{Op: target.AddI, Rd: A, Rs1: A, Rs2: no, Imm: g + 1}),
		sw("st", A, 0),
		sw("st.disp", A, 8),
		sw("st.edge", A, g),
		sw("st.over", A, g+4),
		sw("st.raw", R, 0),
		sw("st.sp", sp, 8),
		sw("st.sp.over", sp, g+4),
		ins("const.in", target.Inst{Op: target.MovI, Rd: R, Rs1: no, Rs2: no, Imm: int32(p.DataBase + 64)}),
		ins("const.out", target.Inst{Op: target.MovI, Rd: R, Rs1: no, Rs2: no, Imm: 64}),
		ins("const.code", target.Inst{Op: target.MovI, Rd: R, Rs1: no, Rs2: no, Imm: 2}),
		ins("mov", target.Inst{Op: target.Mov, Rd: A, Rs1: R, Rs2: no}),
		ins("jr.a", target.Inst{Op: target.Jr, Rd: no, Rs1: A, Rs2: no}),
		ins("jr.r", target.Inst{Op: target.Jr, Rd: no, Rs1: R, Rs2: no}),
		synthInst{name: "beqz.halt", in: target.Inst{Op: target.Beqz, Rd: no, Rs1: R, Rs2: no}, tgt: tgtHalt},
		synthInst{name: "beqz.back", in: target.Inst{Op: target.Beqz, Rd: no, Rs1: R, Rs2: no}, tgt: tgtSeq},
		ins("nop", target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no}),
	)
	// New entries go last: corpus seeds address the alphabet by index.
	if m.Arch == target.X86 {
		out = append(out,
			ins("mask.zero", target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: 0}),
		)
	}
	return out
}

// ---------------------------------------------------------------------
// The differential classifier shared by the fuzzer and the enumerator.

// classify races sfi.Check and the abstract interpreter on prog and
// enforces the containment contract:
//
//   - Whatever sfi.Check accepts, the abstract interpreter accepts: joins
//     and value tracking only add proofs, so a Check-only accept is a bug
//     in one of them.
//   - Whatever either verifier accepts is contained when executed (the
//     oracle).
//
// The abstract interpreter accepting what sfi.Check rejects is allowed —
// that is its extra precision, and it still has to pass the oracle. A
// false reject by sfi.Check is therefore not caught here; the corpus's
// pinned verdicts and the every-benchmark-verifies tests cover that.
func classify(t testing.TB, th *tharness, prog *target.Program, tag func() string) {
	checkOK := len(sfi.Verify(prog, th.pol)) == 0
	fullVs := absint.Verify(prog, th.pol)
	fullOK := len(fullVs) == 0
	if checkOK && !fullOK {
		t.Errorf("%s: sfi.Check accepts but absint rejects (containment broken): %v", tag(), fullVs)
	}
	if checkOK || fullOK {
		if esc := th.contained(prog); len(esc) != 0 {
			t.Errorf("%s: accepted (check=%v absint=%v) yet escaped: %v",
				tag(), verdict(checkOK), verdict(fullOK), esc)
		}
	}
}

func verdict(ok bool) string {
	if ok {
		return "accepts"
	}
	return "rejects"
}
