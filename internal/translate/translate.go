// Package translate implements the Omniware load-time translators:
// OmniVM modules are expanded, one instruction at a time, into native
// code for a target machine, with software fault isolation checks
// inlined on unsafe stores and indirect branches (§1, §3). The
// translator performs only cheap machine-dependent optimization —
// local instruction scheduling, delay-slot filling, a global pointer,
// and peephole/FP-pipeline scheduling on x86 — because the heavy
// machine-independent optimization already happened in the compiler.
package translate

import (
	"fmt"
	"time"

	"omniware/internal/ovm"
	"omniware/internal/sched"
	"omniware/internal/target"
)

// Version names what this translator emits. Bump it in the same
// change as anything that alters a translated instruction for some
// module, machine, segment shape and options: the translation cache
// keys on it, so a disk tier or a peer that holds a previous
// translator's output misses instead of serving code, and cycle
// counts, this translator would not produce. testdata/translations.golden
// records it, and its -update refuses to rewrite a changed digest
// under an unchanged Version.
const Version = 1

// Options selects translator behaviour. The zero value is the paper's
// "no translator optimizations" configuration (Table 5) without SFI.
type Options struct {
	SFI           bool // inline software fault isolation checks
	Schedule      bool // local instruction scheduling (MIPS, PPC; harmless elsewhere)
	GlobalPointer bool // use a global pointer for near-global access (SPARC benefit)
	Peephole      bool // x86 peephole + FP pipeline scheduling
	SFIHoist      bool // §4.4: elide redundant sandboxing of a base register reused
	//                    by consecutive stores in a block (expected optimization)
	// ReadSFI additionally sandboxes loads, giving read protection —
	// the capability §1 notes SFI supports but Omniware "does not yet
	// incorporate". Implemented here as the natural extension.
	ReadSFI bool
}

// Paper returns the configuration used for the headline results
// (Tables 1, 3, 4): all translator optimizations on.
func Paper(sfi bool) Options {
	return Options{SFI: sfi, Schedule: true, GlobalPointer: true, Peephole: true}
}

// SegInfo describes the module's segments for SFI mask construction.
type SegInfo struct {
	DataBase uint32 // segment base (power-of-two aligned)
	DataMask uint32 // offset mask within the data segment (2^k - 1)
	GPValue  uint32 // global-pointer value (0 to disable)
	RegSave  uint32 // base of the register-save area (memory-resident OmniVM regs)
}

// GuardZone is the displacement magnitude covered by the unmapped
// guard regions around a module segment (Wahbe et al.'s guard-zone
// refinement): a sandboxed base plus a displacement within this bound
// cannot reach another segment. The translator folds larger
// displacements into the sandboxed quantity instead, and both SFI
// verifiers admit exactly this bound.
const GuardZone = 4096

// Translate converts a linked OmniVM module into a native program for
// mach.
func Translate(mod *ovm.Module, mach *target.Machine, si SegInfo, opt Options) (*target.Program, error) {
	prog, _, err := TranslateTimed(mod, mach, si, opt)
	return prog, err
}

// Timings reports where one load-time translation spent its
// wall-clock: instruction expansion (including SFI inlining),
// instruction scheduling / delay-slot filling, and the linearize-and-
// patch finish. The omnitrace layer attaches these to the translate
// span so a slow translation can be attributed to a phase.
type Timings struct {
	Expand   time.Duration
	Schedule time.Duration
	Finish   time.Duration
}

// TranslateTimed is Translate plus the per-phase timing report.
func TranslateTimed(mod *ovm.Module, mach *target.Machine, si SegInfo, opt Options) (*target.Program, Timings, error) {
	t := &tx{mod: mod, m: mach, si: si, opt: opt, regSaveBase: si.RegSave}
	prog, err := t.run()
	return prog, t.tim, err
}

type tx struct {
	mod *ovm.Module
	m   *target.Machine
	si  SegInfo
	opt Options

	cur         []target.Inst
	src         int32
	static      [target.NumCats]int
	regSaveBase uint32
	tim         Timings
	sched       sched.Scheduler

	// SFI sandbox reuse (SFIHoist): the OmniVM base register whose
	// sandboxed form is currently live in SFIAddr, or -1.
	sbBase int
}

func (t *tx) emit(in target.Inst) {
	in.Src = t.src
	t.cur = append(t.cur, in)
	t.static[in.Cat]++
}

func (t *tx) schedEnabled() bool {
	if t.m.Arch == target.X86 {
		return t.opt.Peephole
	}
	return t.opt.Schedule
}

func (t *tx) run() (*target.Program, error) {
	text := t.mod.Text
	n := len(text)
	leaders := t.findLeaders()

	// Entry stub: load the dedicated registers (SFI masks, global
	// pointer) and jump to the module entry. On x86 the masks are
	// immediates and the stub is empty.
	var stub []target.Inst
	loadConst := func(r target.Reg, v uint32) {
		if r == target.NoReg {
			return
		}
		if t.m.Arch == target.X86 {
			stub = append(stub, target.Inst{Op: target.MovI, Rd: r, Rs1: target.NoReg, Rs2: target.NoReg, Imm: int32(v), Src: -1})
			return
		}
		hi, lo := split32(int32(v))
		stub = append(stub, target.Inst{Op: target.Lui, Rd: r, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Src: -1})
		if lo != 0 {
			stub = append(stub, target.Inst{Op: target.OrI, Rd: r, Rs1: r, Rs2: target.NoReg, Imm: lo, Src: -1})
		}
	}
	codeMask := nextPow2(uint32(n)) - 1
	if t.m.Arch != target.X86 {
		loadConst(t.m.SFIMask, t.si.DataMask)
		loadConst(t.m.SFIBase, t.si.DataBase)
		loadConst(t.m.CodeMask, codeMask)
	}
	if t.opt.GlobalPointer && t.si.GPValue != 0 && t.m.GP != target.NoReg {
		loadConst(t.m.GP, t.si.GPValue)
	}
	// The stub ends by jumping to the module entry (patched from an
	// OmniVM index below, like every other branch target).
	stub = append(stub, target.Inst{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Target: t.mod.Entry, Src: -1})
	if t.m.HasDelaySlot {
		stub = append(stub, target.Inst{Op: target.Nop, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Src: -1})
	}

	// Expand block by block.
	type blk struct {
		omniStart int
		insts     []target.Inst
	}
	var blocks []blk
	phase := time.Now()
	for i := 0; i < n; {
		start := i
		t.cur = nil
		t.sbBase = -1
		end := i + 1
		for end < n && !leaders[end] {
			end++
		}
		for j := start; j < end; j++ {
			t.src = int32(j)
			if err := t.expand(text[j], j); err != nil {
				return nil, fmt.Errorf("translate/%s: omni %d (%s): %w", t.m.Name, j, text[j].String(), err)
			}
		}
		t.tim.Expand += time.Since(phase)
		phase = time.Now()
		insts := t.cur
		if t.schedEnabled() {
			t.sched.Block(insts, t.m)
		}
		insts = sched.FillDelaySlot(insts, t.m, t.schedEnabled())
		t.tim.Schedule += time.Since(phase)
		phase = time.Now()
		blocks = append(blocks, blk{omniStart: start, insts: insts})
		i = end
	}

	// Linearize; build the omni->native map.
	finishStart := time.Now()
	o2n := make([]int32, int(codeMask)+1)
	code := append([]target.Inst(nil), stub...)
	blockNative := make([]int32, len(blocks))
	for bi := range blocks {
		blockNative[bi] = int32(len(code))
		code = append(code, blocks[bi].insts...)
	}
	// Map every omni index: leaders map to their block start;
	// non-leaders approximate to the containing block start (only
	// block-leader targets occur in well-formed modules).
	for bi := range blocks {
		start := blocks[bi].omniStart
		end := n
		if bi+1 < len(blocks) {
			end = blocks[bi+1].omniStart
		}
		for j := start; j < end; j++ {
			o2n[j] = blockNative[bi]
		}
	}
	// Pad the map to the power-of-two size with a trap.
	trap := int32(len(code))
	code = append(code, target.Inst{Op: target.Break, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Src: -1})
	for j := n; j < len(o2n); j++ {
		o2n[j] = trap
	}

	// Patch branch targets (they currently hold OmniVM indices).
	for i := range code {
		in := &code[i]
		if in.Op.HasTarget() {
			if in.Target >= 0 && int(in.Target) < n {
				in.Target = o2n[in.Target]
			}
		}
	}

	t.tim.Finish = time.Since(finishStart)
	return &target.Program{
		Arch:         t.m.Arch,
		Code:         code,
		Entry:        0, // stub runs first
		OmniToNative: o2n,
		Static:       t.static,
	}, nil
}

func (t *tx) findLeaders() []bool {
	text := t.mod.Text
	leaders := make([]bool, len(text))
	if len(text) == 0 {
		return leaders
	}
	leaders[0] = true
	if int(t.mod.Entry) < len(text) {
		leaders[t.mod.Entry] = true
	}
	mark := func(v int32) {
		if v >= 0 && int(v) < len(text) {
			leaders[v] = true
		}
	}
	for i, in := range text {
		switch in.Op.Format() {
		case ovm.FmtBrRR, ovm.FmtBrRI, ovm.FmtJmp, ovm.FmtJal:
			mark(in.Imm2)
			if i+1 < len(text) {
				leaders[i+1] = true
			}
		case ovm.FmtJr, ovm.FmtJalr:
			if i+1 < len(text) {
				leaders[i+1] = true
			}
		}
		switch in.Op {
		case ovm.HALT, ovm.BREAK:
			if i+1 < len(text) {
				leaders[i+1] = true
			}
		case ovm.LDA, ovm.LDI:
			// Any 32-bit constant that could be a code address is a
			// potential indirect target (function pointers).
			mark(in.Imm)
		}
	}
	for _, s := range t.mod.Symbols {
		if s.Section == ovm.SecText {
			mark(int32(s.Value))
		}
	}
	return leaders
}

// split32 decomposes v into (hi, lo) such that (hi<<16)+signext(lo) ==
// v with lo in [-32768, 32767], the standard lui/ori... actually
// lui/addi decomposition. We use an unsigned ori, so keep lo
// non-negative.
func split32(v int32) (hi, lo int32) {
	u := uint32(v)
	return int32(u >> 16), int32(u & 0xffff)
}

func nextPow2(v uint32) uint32 {
	p := uint32(1)
	for p < v {
		p <<= 1
	}
	return p
}
