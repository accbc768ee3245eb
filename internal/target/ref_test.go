package target

// The pre-lowering executor, kept for one PR as the differential
// reference TestSimMatchesReference holds the lowered loop to: the
// Inst-at-a-time Run, resolve, step, mem and memALU, and the
// function-pointer pipeline model, exactly as they were before Sim
// lowered its program. Only the helpers both executors share (aluApply,
// fpCC, truncToI32, faultKind, storeSize, the Pentium pairing
// predicates) live in the package proper. Delete this file once the
// lowered loop has shipped a release on the reference's say-so.

import (
	"fmt"
	"math"
	"sync/atomic"

	"omniware/internal/hostapi"
	"omniware/internal/seg"
)

// RefSim is the pre-lowering Sim: same inputs, same public knobs,
// its own register file and pipeline state.
type RefSim struct {
	M    *Machine
	Prog *Program
	Mem  *seg.Memory
	Env  *hostapi.Env

	MaxInsts   uint64
	Interrupt  *atomic.Bool
	StoreTrace func(addr, size uint32, faulted bool)

	r  [32]uint32  // integer file
	f  [32]float64 // FP file (indexed by reg-32)
	ia uint32      // latched integer compare operands
	ib uint32
	fa float64 // latched FP compare operands
	fb float64

	pc       int32
	insts    uint64
	nextPoll uint64 // insts threshold for the next Interrupt check
	counts   [NumCats]uint64
	pipe     refPipe
}

// NewReference is New for the reference executor.
func NewReference(m *Machine, prog *Program, mem *seg.Memory, env *hostapi.Env) *RefSim {
	s := &RefSim{M: m, Prog: prog, Mem: mem, Env: env, pc: prog.Entry}
	s.pipe.init(m)
	s.SetIntReg(14, env.Layout.StackTop) // OmniVM sp
	s.SetIntReg(15, 0x7fffffff)          // returning from entry halts
	return s
}

// regSaveAddr is the memory slot of OmniVM integer register i.
func (s *RefSim) regSaveAddr(i int) uint32 {
	return s.Env.Layout.RegSave + IntSlotOffset(i)
}

// IntReg returns OmniVM integer register i (hostapi.CPU).
func (s *RefSim) IntReg(i int) uint32 {
	if r := s.M.OmniInt[i]; r != NoReg {
		return s.r[r]
	}
	v, _ := s.Mem.LoadU32(s.regSaveAddr(i))
	return v
}

// SetIntReg sets OmniVM integer register i (writes to r0 discarded).
func (s *RefSim) SetIntReg(i int, v uint32) {
	if i == 0 {
		return
	}
	if r := s.M.OmniInt[i]; r != NoReg {
		s.r[r] = v
		return
	}
	s.Mem.StoreU32(s.regSaveAddr(i), v)
}

// FPReg returns OmniVM FP register i.
func (s *RefSim) FPReg(i int) float64 {
	if r := s.M.OmniFP[i]; r != NoReg {
		return s.f[r-32]
	}
	v, _ := s.Mem.LoadU64(s.Env.Layout.RegSave + FPSlotOffset(i))
	return math.Float64frombits(v)
}

// SetFPReg sets OmniVM FP register i.
func (s *RefSim) SetFPReg(i int, v float64) {
	if r := s.M.OmniFP[i]; r != NoReg {
		s.f[r-32] = v
		return
	}
	s.Mem.StoreU64(s.Env.Layout.RegSave+FPSlotOffset(i), math.Float64bits(v))
}

// Cycles returns elapsed simulated cycles.
func (s *RefSim) Cycles() uint64 { return s.pipe.clock }

// reg reads integer register r (NoReg reads as 0, covering absolute
// addressing and the zero-register image).
func (s *RefSim) reg(r Reg) uint32 {
	if r == NoReg {
		return 0
	}
	return s.r[r]
}

// setR writes integer register r; writes to NoReg and to the
// hardwired zero register are discarded.
func (s *RefSim) setR(r Reg, v uint32) {
	if r == NoReg || r == s.M.ZeroReg {
		return
	}
	s.r[r] = v
}

func (s *RefSim) fp(r Reg) float64 {
	if r < 32 {
		return 0
	}
	return s.f[r-32]
}

func (s *RefSim) setF(r Reg, v float64) {
	if r >= 32 {
		s.f[r-32] = v
	}
}

func (s *RefSim) result(exit int32, faulted bool, fault string) Result {
	return Result{
		ExitCode: exit,
		Insts:    s.insts,
		Cycles:   s.Cycles(),
		Counts:   s.counts,
		Faulted:  faulted,
		Fault:    fault,
	}
}

// exception delivers an access violation to the module's registered
// handler, or terminates the run. src is the faulting instruction's
// OmniVM index (what the handler sees in r3).
func (s *RefSim) exception(kind, addr uint32, src int32, desc string) (Result, bool) {
	h := s.Env.Handler
	var to int32 = -1
	if o2n := s.Prog.OmniToNative; o2n != nil {
		if h >= 0 && int(h) < len(o2n) {
			to = o2n[h]
		}
	} else if h >= 0 && int(h) < len(s.Prog.Code) {
		to = h
	}
	if to < 0 {
		return s.result(-1, true, desc), true
	}
	s.SetIntReg(1, kind)
	s.SetIntReg(2, addr)
	s.SetIntReg(3, uint32(src))
	s.pc = to
	return Result{}, false
}

// account charges one executed instruction to the statistics and the
// pipeline model.
func (s *RefSim) account(in *Inst) {
	s.insts++
	s.counts[in.Cat]++
	s.pipe.issue(in)
}

// Run executes until halt, exit, an unhandled exception, or the
// instruction budget.
func (s *RefSim) Run() (Result, error) {
	code := s.Prog.Code
	n := int32(len(code))
	for {
		if s.MaxInsts > 0 && s.insts >= s.MaxInsts {
			return Result{}, fmt.Errorf("target/%s: %w (%d) at pc=%d", s.M.Name, hostapi.ErrBudget, s.MaxInsts, s.pc)
		}
		// A threshold (not insts&mask == 0) because delay-slot machines
		// account two instructions per branch iteration: an exact-match
		// poll can step over every multiple of the mask and never fire.
		if s.Interrupt != nil && s.insts >= s.nextPoll {
			s.nextPoll = s.insts + 0x1000
			if s.Interrupt.Load() {
				return Result{}, fmt.Errorf("target/%s: %w at pc=%d after %d instructions", s.M.Name, hostapi.ErrInterrupted, s.pc, s.insts)
			}
		}
		if s.pc < 0 || s.pc >= n {
			if res, done := s.exception(excBadJump, uint32(s.pc), s.pc, fmt.Sprintf("target/%s: pc %d out of code", s.M.Name, s.pc)); done {
				return res, nil
			}
			continue
		}
		in := &code[s.pc]
		op := in.Op

		// Control transfers (with delay-slot execution on the
		// delay-slot machines); everything else is a simple step.
		if op.IsBranch() || op.IsJump() {
			s.account(in)
			taken, tgt, kind, addr := s.resolve(in)
			if kind != 0 {
				if res, done := s.exception(kind, addr, in.Src, fmt.Sprintf("target/%s: bad indirect target %#x", s.M.Name, addr)); done {
					return res, nil
				}
				continue
			}
			next := s.pc + 1
			if s.M.HasDelaySlot {
				next = s.pc + 2
				if s.pc+1 < n {
					slot := &code[s.pc+1]
					if slot.Op.IsBranch() || slot.Op.IsJump() || slot.Op == Syscall {
						return Result{}, fmt.Errorf("target/%s: control transfer in delay slot at %d", s.M.Name, s.pc+1)
					}
					s.account(slot)
					if kind, addr, fault := s.step(slot); fault {
						if res, done := s.exception(kind, addr, slot.Src, fmt.Sprintf("target/%s: fault in delay slot at %d", s.M.Name, s.pc+1)); done {
							return res, nil
						}
						continue
					}
				}
			}
			if taken {
				next = tgt
			}
			s.pc = next
			continue
		}

		switch op {
		case Syscall:
			s.account(in)
			if err := s.Env.Syscall(in.Imm, s); err != nil {
				return Result{}, fmt.Errorf("target/%s: pc=%d: %w", s.M.Name, s.pc, err)
			}
			if s.Env.Exited {
				return s.result(s.Env.ExitCode, false, ""), nil
			}
			s.pc++
		case Break:
			s.account(in)
			if res, done := s.exception(excBreak, uint32(s.pc), in.Src, fmt.Sprintf("target/%s: breakpoint at %d", s.M.Name, s.pc)); done {
				return res, nil
			}
		case Halt:
			s.account(in)
			return s.result(int32(s.IntReg(1)), false, ""), nil
		default:
			s.account(in)
			if kind, addr, fault := s.step(in); fault {
				if res, done := s.exception(kind, addr, in.Src, fmt.Sprintf("target/%s: memory fault at %#x (pc=%d)", s.M.Name, addr, s.pc)); done {
					return res, nil
				}
				continue
			}
			s.pc++
		}
	}
}

// resolve evaluates a branch or jump: whether it is taken, its target
// index, and (for indirect transfers) a pending bad-jump exception.
func (s *RefSim) resolve(in *Inst) (taken bool, tgt int32, excKind, excAddr uint32) {
	r := &s.r
	switch in.Op {
	case Bcc:
		return s.intCC(in.CC), in.Target, 0, 0
	case FBcc:
		return fpCC(in.CC, s.fa, s.fb), in.Target, 0, 0
	case Beq:
		return s.reg(in.Rs1) == s.reg(in.Rs2), in.Target, 0, 0
	case Bne:
		return s.reg(in.Rs1) != s.reg(in.Rs2), in.Target, 0, 0
	case Beqz:
		return s.reg(in.Rs1) == 0, in.Target, 0, 0
	case Bnez:
		return s.reg(in.Rs1) != 0, in.Target, 0, 0
	case Bltz:
		return int32(s.reg(in.Rs1)) < 0, in.Target, 0, 0
	case Blez:
		return int32(s.reg(in.Rs1)) <= 0, in.Target, 0, 0
	case Bgtz:
		return int32(s.reg(in.Rs1)) > 0, in.Target, 0, 0
	case Bgez:
		return int32(s.reg(in.Rs1)) >= 0, in.Target, 0, 0
	case J:
		return true, in.Target, 0, 0
	case Jal:
		s.setR(in.Rd, uint32(in.Imm))
		return true, in.Target, 0, 0
	case Jr:
		return s.indirect(r[in.Rs1])
	case Jalr:
		v := r[in.Rs1] // read before the link write: jalr rd, rd is legal
		s.setR(in.Rd, uint32(in.Imm))
		return s.indirect(v)
	}
	return false, 0, 0, 0
}

// indirect maps a runtime code address (an OmniVM index for translated
// programs, a native index otherwise) to a native instruction index.
func (s *RefSim) indirect(v uint32) (bool, int32, uint32, uint32) {
	if o2n := s.Prog.OmniToNative; o2n != nil {
		if v >= uint32(len(o2n)) {
			return false, 0, excBadJump, v
		}
		return true, o2n[v], 0, 0
	}
	return true, int32(v), 0, 0
}

func (s *RefSim) intCC(cc CC) bool {
	a, b := s.ia, s.ib
	switch cc {
	case CCEq:
		return a == b
	case CCNe:
		return a != b
	case CCLt:
		return int32(a) < int32(b)
	case CCLe:
		return int32(a) <= int32(b)
	case CCGt:
		return int32(a) > int32(b)
	case CCGe:
		return int32(a) >= int32(b)
	case CCLtU:
		return a < b
	case CCLeU:
		return a <= b
	case CCGtU:
		return a > b
	case CCGeU:
		return a >= b
	}
	return false
}

// effAddr computes a load/store address.
func (s *RefSim) effAddr(in *Inst) uint32 {
	if in.Indexed {
		return s.reg(in.Rs1) + s.reg(in.Rs2)
	}
	return s.reg(in.Rs1) + uint32(in.Imm)
}

// step executes one non-control instruction. It returns a pending
// exception (kind, addr) with fault=true if a memory access failed or
// a division trapped.
func (s *RefSim) step(in *Inst) (kind, addr uint32, fault bool) {
	// The x86 register-memory forms carry ordinary ALU opcodes
	// (register or immediate form) with a memory operand flag.
	if in.MemSrc || in.MemDst {
		return s.memALU(in)
	}
	switch in.Op {
	case Nop:

	// Three-register ALU.
	case Add:
		s.setR(in.Rd, s.reg(in.Rs1)+s.reg(in.Rs2))
	case Sub:
		s.setR(in.Rd, s.reg(in.Rs1)-s.reg(in.Rs2))
	case Mul:
		s.setR(in.Rd, uint32(int32(s.reg(in.Rs1))*int32(s.reg(in.Rs2))))
	case Div, DivU, Rem, RemU:
		b := s.reg(in.Rs2)
		if b == 0 {
			return excDivZero, 0, true
		}
		a := s.reg(in.Rs1)
		switch in.Op {
		case Div:
			s.setR(in.Rd, uint32(int32(a)/int32(b)))
		case DivU:
			s.setR(in.Rd, a/b)
		case Rem:
			s.setR(in.Rd, uint32(int32(a)%int32(b)))
		case RemU:
			s.setR(in.Rd, a%b)
		}
	case And:
		s.setR(in.Rd, s.reg(in.Rs1)&s.reg(in.Rs2))
	case Or:
		s.setR(in.Rd, s.reg(in.Rs1)|s.reg(in.Rs2))
	case Xor:
		s.setR(in.Rd, s.reg(in.Rs1)^s.reg(in.Rs2))
	case Sll:
		s.setR(in.Rd, s.reg(in.Rs1)<<(s.reg(in.Rs2)&31))
	case Srl:
		s.setR(in.Rd, s.reg(in.Rs1)>>(s.reg(in.Rs2)&31))
	case Sra:
		s.setR(in.Rd, uint32(int32(s.reg(in.Rs1))>>(s.reg(in.Rs2)&31)))
	case Slt:
		s.setR(in.Rd, b2u(int32(s.reg(in.Rs1)) < int32(s.reg(in.Rs2))))
	case Sltu:
		s.setR(in.Rd, b2u(s.reg(in.Rs1) < s.reg(in.Rs2)))

	// Register-immediate ALU. The x86 MemSrc and MemDst forms reuse
	// the ALU opcodes with a memory operand.
	case AddI:
		s.setR(in.Rd, s.reg(in.Rs1)+uint32(in.Imm))
	case AndI:
		s.setR(in.Rd, s.reg(in.Rs1)&uint32(in.Imm))
	case OrI:
		s.setR(in.Rd, s.reg(in.Rs1)|uint32(in.Imm))
	case XorI:
		s.setR(in.Rd, s.reg(in.Rs1)^uint32(in.Imm))
	case SllI:
		s.setR(in.Rd, s.reg(in.Rs1)<<(uint32(in.Imm)&31))
	case SrlI:
		s.setR(in.Rd, s.reg(in.Rs1)>>(uint32(in.Imm)&31))
	case SraI:
		s.setR(in.Rd, uint32(int32(s.reg(in.Rs1))>>(uint32(in.Imm)&31)))
	case SltI:
		s.setR(in.Rd, b2u(int32(s.reg(in.Rs1)) < in.Imm))
	case SltuI:
		s.setR(in.Rd, b2u(s.reg(in.Rs1) < uint32(in.Imm)))

	// Constants and moves.
	case MovI:
		s.setR(in.Rd, uint32(in.Imm))
	case Mov:
		s.setR(in.Rd, s.reg(in.Rs1))
	case Lui:
		s.setR(in.Rd, uint32(in.Imm)<<16)
	case Lea:
		s.setR(in.Rd, s.reg(in.Rs1)+uint32(in.Imm))
	case Neg:
		s.setR(in.Rd, -s.reg(in.Rs1))

	// Memory.
	case Lb, Lbu, Lh, Lhu, Lw, Lf, Ld, Sb, Sh, Sw, Sf, Sd:
		return s.mem(in, s.effAddr(in))

	// FP arithmetic: single-precision forms round through float32,
	// exactly as the interpreter does.
	case FaddS:
		s.setF(in.Rd, float64(float32(s.fp(in.Rs1))+float32(s.fp(in.Rs2))))
	case FsubS:
		s.setF(in.Rd, float64(float32(s.fp(in.Rs1))-float32(s.fp(in.Rs2))))
	case FmulS:
		s.setF(in.Rd, float64(float32(s.fp(in.Rs1))*float32(s.fp(in.Rs2))))
	case FdivS:
		s.setF(in.Rd, float64(float32(s.fp(in.Rs1))/float32(s.fp(in.Rs2))))
	case FaddD:
		s.setF(in.Rd, s.fp(in.Rs1)+s.fp(in.Rs2))
	case FsubD:
		s.setF(in.Rd, s.fp(in.Rs1)-s.fp(in.Rs2))
	case FmulD:
		s.setF(in.Rd, s.fp(in.Rs1)*s.fp(in.Rs2))
	case FdivD:
		s.setF(in.Rd, s.fp(in.Rs1)/s.fp(in.Rs2))
	case FnegS:
		s.setF(in.Rd, float64(-float32(s.fp(in.Rs1))))
	case FnegD:
		s.setF(in.Rd, -s.fp(in.Rs1))
	case FabsS:
		s.setF(in.Rd, float64(float32(math.Abs(s.fp(in.Rs1)))))
	case FabsD:
		s.setF(in.Rd, math.Abs(s.fp(in.Rs1)))
	case Fmov:
		s.setF(in.Rd, s.fp(in.Rs1))
	case MovWF:
		s.setF(in.Rd, float64(math.Float32frombits(s.reg(in.Rs1))))
	case MovFW:
		s.setR(in.Rd, math.Float32bits(float32(s.fp(in.Rs1))))

	case CvtWS:
		s.setF(in.Rd, float64(float32(int32(s.reg(in.Rs1)))))
	case CvtWD:
		s.setF(in.Rd, float64(int32(s.reg(in.Rs1))))
	case CvtSW:
		s.setR(in.Rd, uint32(truncToI32(float64(float32(s.fp(in.Rs1))))))
	case CvtDW:
		s.setR(in.Rd, uint32(truncToI32(s.fp(in.Rs1))))
	case CvtSD, CvtDS:
		s.setF(in.Rd, float64(float32(s.fp(in.Rs1))))

	// Compares latch operands; the CC on the branch decides how they
	// are interpreted.
	case Cmp:
		s.ia, s.ib = s.reg(in.Rs1), s.reg(in.Rs2)
	case CmpI, CmpUI:
		s.ia, s.ib = s.reg(in.Rs1), uint32(in.Imm)
	case Fcmp:
		s.fa, s.fb = s.fp(in.Rs1), s.fp(in.Rs2)
	}
	return 0, 0, false
}

// mem executes a plain load or store at addr.
func (s *RefSim) mem(in *Inst, addr uint32) (uint32, uint32, bool) {
	var flt *seg.Fault
	switch in.Op {
	case Lb:
		var v uint8
		if v, flt = s.Mem.LoadU8(addr); flt == nil {
			s.setR(in.Rd, uint32(int32(int8(v))))
		}
	case Lbu:
		var v uint8
		if v, flt = s.Mem.LoadU8(addr); flt == nil {
			s.setR(in.Rd, uint32(v))
		}
	case Lh:
		var v uint16
		if v, flt = s.Mem.LoadU16(addr); flt == nil {
			s.setR(in.Rd, uint32(int32(int16(v))))
		}
	case Lhu:
		var v uint16
		if v, flt = s.Mem.LoadU16(addr); flt == nil {
			s.setR(in.Rd, uint32(v))
		}
	case Lw:
		var v uint32
		if v, flt = s.Mem.LoadU32(addr); flt == nil {
			s.setR(in.Rd, v)
		}
	case Lf:
		var v uint32
		if v, flt = s.Mem.LoadU32(addr); flt == nil {
			s.setF(in.Rd, float64(math.Float32frombits(v)))
		}
	case Ld:
		var v uint64
		if v, flt = s.Mem.LoadU64(addr); flt == nil {
			s.setF(in.Rd, math.Float64frombits(v))
		}
	case Sb:
		flt = s.Mem.StoreU8(addr, uint8(s.reg(in.Rd)))
	case Sh:
		flt = s.Mem.StoreU16(addr, uint16(s.reg(in.Rd)))
	case Sw:
		flt = s.Mem.StoreU32(addr, s.reg(in.Rd))
	case Sf:
		flt = s.Mem.StoreU32(addr, math.Float32bits(float32(s.fp(in.Rd))))
	case Sd:
		flt = s.Mem.StoreU64(addr, math.Float64bits(s.fp(in.Rd)))
	}
	if s.StoreTrace != nil && in.Op.IsStore() {
		s.StoreTrace(addr, storeSize(in.Op), flt != nil)
	}
	if flt != nil {
		return faultKind(flt), addr, true
	}
	return 0, 0, false
}

// memALU executes the x86 register-memory forms: MemSrc computes
// rd = op(rs1, mem[rs2+imm]); MemDst computes mem[imm] op= operand,
// where the operand is rs1 or (register-free form) Target.
func (s *RefSim) memALU(in *Inst) (uint32, uint32, bool) {
	if in.MemSrc {
		addr := s.reg(in.Rs2) + uint32(in.Imm)
		v, flt := s.Mem.LoadU32(addr)
		if flt != nil {
			return faultKind(flt), addr, true
		}
		s.setR(in.Rd, aluApply(in.Op, s.reg(in.Rs1), v))
		return 0, 0, false
	}
	addr := uint32(in.Imm)
	v, flt := s.Mem.LoadU32(addr)
	if flt != nil {
		return faultKind(flt), addr, true
	}
	operand := uint32(in.Target)
	if in.Rs1 != NoReg {
		operand = s.reg(in.Rs1)
	}
	flt = s.Mem.StoreU32(addr, aluApply(in.Op, v, operand))
	if s.StoreTrace != nil {
		s.StoreTrace(addr, 4, flt != nil)
	}
	if flt != nil {
		return faultKind(flt), addr, true
	}
	return 0, 0, false
}

// pipe is the cycle-accounting model: a register scoreboard plus each
// machine's issue discipline. It charges the stalls the paper's
// machines exhibit — the R4400 load-use interlock, SuperSPARC result
// latencies, 601 dual dispatch with branch folding, and Pentium U/V
// pairing with AGI stalls — without modelling caches (EXPERIMENTS.md
// measures a perfect-memory pipeline).
type refPipe struct {
	m     *Machine
	clock uint64
	// avail[r] is the cycle register r's pending result becomes
	// usable; flag is the same for the latched compare operands.
	avail [64]uint64
	flag  uint64
	// slot counts issue slots consumed in the current cycle on the
	// multi-issue machines.
	slot int
}

func (p *refPipe) init(m *Machine) { p.m = m }

// issue charges one instruction: stall until its operands are ready,
// consume an issue slot per the machine's discipline, and record when
// its result will be available.
func (p *refPipe) issue(in *Inst) {
	m := p.m
	op := in.Op

	// Operand readiness.
	ready := p.clock
	use := func(r Reg) {
		if r >= 0 && p.avail[r] > ready {
			ready = p.avail[r]
		}
	}
	use(in.Rs1)
	use(in.Rs2)
	// Stores read Rd as the value operand. The Pentium's store buffer
	// picks the data up after issue, so stores there wait only on their
	// address registers.
	if op.IsStore() && !m.Pairing {
		use(in.Rd)
	}
	if op == Bcc || op == FBcc {
		if p.flag > ready {
			ready = p.flag
		}
	}
	// Pentium AGI stall: an address base register produced in the
	// previous cycle delays address generation by one more.
	if m.Pairing && (op.IsLoad() || op.IsStore() || op == Lea || in.MemSrc) {
		base := in.Rs1
		if in.MemSrc {
			base = in.Rs2
		}
		if base >= 0 && p.avail[base]+1 > ready {
			ready = p.avail[base] + 1
		}
	}
	if ready > p.clock {
		p.clock = ready
		p.slot = 0
	}

	// Issue.
	var at uint64
	switch {
	case m.Pairing:
		at = p.issuePentium(in)
	case m.IssueWidth > 1:
		at = p.clock
		if m.BranchFolding && (op.IsBranch() || op.IsJump()) {
			// Folded out of the dispatch stream: no slot consumed.
			break
		}
		p.slot++
		if p.slot >= m.IssueWidth {
			p.clock++
			p.slot = 0
		}
	default:
		at = p.clock
		p.clock++
	}

	// Result availability.
	lat := uint64(m.Latency[op])
	switch op {
	case Cmp, CmpI, CmpUI, Fcmp:
		// On the branch-folding 601 the CR result forwards straight to
		// the fold stage; elsewhere the branch sees it a cycle later.
		if m.BranchFolding {
			p.flag = at
		} else {
			p.flag = at + lat
		}
	default:
		if in.Rd >= 0 && !op.IsStore() {
			p.avail[in.Rd] = at + lat
		}
	}
}

// issuePentium applies the U/V pairing rules: simple register ALU,
// moves, leas, loads and stores pair; shifts issue only in U; branches
// end the pair; FP, multiply, divide and the register-memory forms
// issue alone (MemSrc +1 cycle, MemDst +2 for the read-modify-write).
func (p *refPipe) issuePentium(in *Inst) uint64 {
	op := in.Op
	// Register-memory ALU forms: the load-op form overlaps its load in
	// the U pipe (no extra cycle beyond losing the pair); the
	// read-modify-write store form pays one extra cycle.
	extra := uint64(0)
	if in.MemDst {
		extra = 1
	}
	switch {
	case in.MemSrc:
		// Load-op: U pipe only, single issue slot.
		if p.slot > 0 {
			p.clock++
			p.slot = 0
		}
		at := p.clock
		p.slot = 1
		return at
	case extra > 0 || !pentiumPairable(op):
		if p.slot > 0 {
			p.clock++
			p.slot = 0
		}
		at := p.clock
		p.clock += 1 + extra
		return at
	case pentiumUOnly(op):
		if p.slot > 0 {
			p.clock++
			p.slot = 0
		}
		at := p.clock
		p.slot = 1 // occupies U; a pairable instruction may still fill V
		return at
	case op.IsBranch() || op.IsJump():
		// Branches pair only as the second (V) instruction and always
		// terminate the pair.
		at := p.clock
		p.clock++
		p.slot = 0
		return at
	default:
		at := p.clock
		p.slot++
		if p.slot >= 2 {
			p.clock++
			p.slot = 0
		}
		return at
	}
}
