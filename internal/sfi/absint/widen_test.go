package absint_test

import (
	"testing"

	"omniware/internal/sfi/absint"
	"omniware/internal/target"
)

// maxVisitsPerInst is the explicit convergence budget: the fixpoint
// must settle with at most this many worklist visits per instruction,
// on every machine, for every adversarial CFG below. The widening at
// leaders (a growing interval jumps to top instead of creeping) is
// what keeps the bound a small constant — without it, a counter that
// grows by one per trip would be revisited ~2^32 times. The constant
// carries slack over the measured worst case (~3 visits/inst) so a
// legitimate precision improvement doesn't trip it, but a lost
// widening would blow through it by orders of magnitude (the test
// would in practice hang long before the assertion fires, which is
// why the budget is asserted rather than just logged).
const maxVisitsPerInst = 16

// widenAsm hand-assembles adversarial programs the translator would
// never emit, in the same idiom as diamondProgram: a pinning stub,
// delay-slot padding on machines that need it, explicit branch
// targets.
type widenAsm struct {
	th   *tharness
	code []target.Inst
}

func newWidenAsm(th *tharness) *widenAsm {
	a := &widenAsm{th: th}
	m, p := th.m, th.pol
	a.loadConst(m.SFIMask, p.DataMask)
	a.loadConst(m.SFIBase, p.DataBase)
	a.loadConst(m.CodeMask, 1)
	a.loadConst(m.GP, p.GPValue)
	j := a.emit(target.Inst{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg})
	a.pad()
	a.code[j].Target = int32(len(a.code))
	return a
}

func (a *widenAsm) emit(in target.Inst) int32 {
	a.code = append(a.code, in)
	return int32(len(a.code) - 1)
}

func (a *widenAsm) pad() {
	if a.th.m.HasDelaySlot {
		a.emit(target.Inst{Op: target.Nop, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg})
	}
}

func (a *widenAsm) loadConst(rd target.Reg, val uint32) {
	no := target.NoReg
	if rd == no {
		return
	}
	a.emit(target.Inst{Op: target.Lui, Rd: rd, Rs1: no, Rs2: no, Imm: int32(val >> 16)})
	if lo := val & 0xffff; lo != 0 {
		a.emit(target.Inst{Op: target.OrI, Rd: rd, Rs1: rd, Rs2: no, Imm: int32(lo)})
	}
}

// sandboxStore emits each machine's real mask+rebase+store idiom (the
// one the translator produces) of val through the dedicated sandbox
// register, so every program carries a proof obligation that must
// survive the loop joins.
func (a *widenAsm) sandboxStore(val target.Reg) {
	m, p := a.th.m, a.th.pol
	no := target.NoReg
	if m.SFIMask == no { // x86: immediate-form sandboxing
		a.emit(target.Inst{Op: target.AndI, Rd: m.SFIAddr, Rs1: val, Rs2: no, Imm: int32(p.DataMask)})
		a.emit(target.Inst{Op: target.OrI, Rd: m.SFIAddr, Rs1: m.SFIAddr, Rs2: no, Imm: int32(p.DataBase)})
	} else {
		a.emit(target.Inst{Op: target.And, Rd: m.SFIAddr, Rs1: val, Rs2: m.SFIMask})
		a.emit(target.Inst{Op: target.Or, Rd: m.SFIAddr, Rs1: m.SFIAddr, Rs2: m.SFIBase})
	}
	a.emit(target.Inst{Op: target.Sw, Rd: val, Rs1: m.SFIAddr, Rs2: no, Imm: 0})
}

func (a *widenAsm) finish() *target.Program {
	no := target.NoReg
	a.emit(target.Inst{Op: target.Halt, Rd: no, Rs1: no, Rs2: no})
	trap := a.emit(target.Inst{Op: target.Break, Rd: no, Rs1: no, Rs2: no})
	return &target.Program{
		Arch:         a.th.m.Arch,
		Code:         a.code,
		Entry:        0,
		OmniToNative: []int32{trap, trap},
	}
}

// checkConverges verifies the program, requires it admitted, and
// asserts the iteration budget.
func checkConverges(t *testing.T, th *tharness, prog *target.Program, shape string) {
	t.Helper()
	var st absint.Stats
	if vs := absint.VerifyStats(prog, th.pol, &st); len(vs) != 0 {
		t.Errorf("%s %s: rejected: %v", th.m.Name, shape, vs[0])
		return
	}
	n := len(prog.Code)
	if st.Iterations == 0 || st.Blocks == 0 {
		t.Errorf("%s %s: empty analysis stats %+v", th.m.Name, shape, st)
	}
	if st.Iterations > maxVisitsPerInst*n {
		t.Errorf("%s %s: fixpoint took %d visits for %d insts (> %d/inst) — widening regressed",
			th.m.Name, shape, st.Iterations, n, maxVisitsPerInst)
	}
	t.Logf("%s %s: %d insts, %d blocks, %d visits (%.1f/inst)",
		th.m.Name, shape, n, st.Blocks, st.Iterations, float64(st.Iterations)/float64(n))
}

// nestedLoopProgram builds depth nested counting loops, each with its
// own counter register decremented at its back-edge, around an
// innermost sandboxed store of a register that grows every trip — the
// classic shape whose interval facts never stabilize without
// widening.
func nestedLoopProgram(th *tharness, depth int) *target.Program {
	a := newWidenAsm(th)
	m := th.m
	no := target.NoReg
	val := m.OmniInt[1]
	a.loadConst(val, 1)
	counters := make([]target.Reg, depth)
	heads := make([]int32, depth)
	for d := 0; d < depth; d++ {
		// Cycle through the registers every machine holds in real
		// registers (x86 has only OmniInt[1..4]); sharing a counter
		// register across nesting levels is nonsense at runtime but
		// the analysis is static and the CFG shape is what matters.
		counters[d] = m.OmniInt[2+d%3]
		a.loadConst(counters[d], 100)
		heads[d] = int32(len(a.code))
	}
	a.sandboxStore(val)
	a.emit(target.Inst{Op: target.AddI, Rd: val, Rs1: val, Rs2: no, Imm: 1})
	for d := depth - 1; d >= 0; d-- {
		a.emit(target.Inst{Op: target.AddI, Rd: counters[d], Rs1: counters[d], Rs2: no, Imm: -1})
		b := a.emit(target.Inst{Op: target.Bnez, Rd: no, Rs1: counters[d], Rs2: no})
		a.code[b].Target = heads[d]
		a.pad()
	}
	return a.finish()
}

// selfLoopProgram builds k self-loops whose heads are their own
// branch targets — every loop head is simultaneously a leader, a
// widening point, and its own successor — plus one literal
// single-instruction self-loop at the end.
func selfLoopProgram(th *tharness, k int) *target.Program {
	a := newWidenAsm(th)
	m := th.m
	no := target.NoReg
	val := m.OmniInt[1]
	a.loadConst(val, 1)
	for i := 0; i < k; i++ {
		head := int32(len(a.code))
		a.emit(target.Inst{Op: target.AddI, Rd: val, Rs1: val, Rs2: no, Imm: 1})
		a.sandboxStore(val)
		b := a.emit(target.Inst{Op: target.Bnez, Rd: no, Rs1: val, Rs2: no})
		a.code[b].Target = head
		a.pad()
	}
	// A branch that targets itself: leader == back-edge source.
	self := int32(len(a.code))
	a.emit(target.Inst{Op: target.Bnez, Rd: no, Rs1: val, Rs2: no})
	a.code[self].Target = self
	a.pad()
	return a.finish()
}

// delaySlotBackEdgeProgram puts each loop's counter update in the
// back-edge's delay slot on machines that have one (the update
// executes after the branch decides, so the fact flowing around the
// back edge is the post-slot state), chained k loops deep.
func delaySlotBackEdgeProgram(th *tharness, k int) *target.Program {
	a := newWidenAsm(th)
	m := th.m
	no := target.NoReg
	val := m.OmniInt[1]
	a.loadConst(val, 1)
	for i := 0; i < k; i++ {
		c := m.OmniInt[2+i%3]
		a.loadConst(c, 64)
		head := int32(len(a.code))
		a.sandboxStore(val)
		b := a.emit(target.Inst{Op: target.Bnez, Rd: no, Rs1: c, Rs2: no})
		a.code[b].Target = head
		if m.HasDelaySlot {
			a.emit(target.Inst{Op: target.AddI, Rd: c, Rs1: c, Rs2: no, Imm: -1})
		}
	}
	return a.finish()
}

// TestWideningConvergence drives the fixpoint over adversarial loop
// CFGs on every machine and asserts the explicit iteration budget —
// the guarantee that admission-time analysis stays linear-ish in
// program size no matter what shape arrives.
func TestWideningConvergence(t *testing.T) {
	for _, th := range harnesses(t) {
		checkConverges(t, th, nestedLoopProgram(th, 8), "nested-loops(8)")
		checkConverges(t, th, selfLoopProgram(th, 6), "self-loops(6)")
		checkConverges(t, th, delaySlotBackEdgeProgram(th, 6), "delay-slot-back-edges(6)")
	}
}
