package target

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"omniware/internal/hostapi"
	"omniware/internal/seg"
)

// ErrBudget and ErrInterrupted alias the hostapi sentinels both
// executors wrap, so callers holding only this package can still
// classify run terminations with errors.Is.
var (
	ErrBudget      = hostapi.ErrBudget
	ErrInterrupted = hostapi.ErrInterrupted
)

// Exception kind codes delivered in r1 to a module's access-violation
// handler; the values match internal/interp's ExcKind codes so a
// module sees the same ABI under interpretation and translation.
const (
	excUnmapped  = 1
	excProt      = 2
	excUnaligned = 3
	excDivZero   = 4
	excBadJump   = 5
	excBreak     = 6
)

func faultKind(f *seg.Fault) uint32 {
	switch f.Kind {
	case seg.FaultUnmapped:
		return excUnmapped
	case seg.FaultProt:
		return excProt
	default:
		return excUnaligned
	}
}

// Sim executes a target Program over a segmented address space. It
// simulates the architectural register file, the pipeline cost model
// of its Machine, and the delay-slot semantics of the delay-slot
// architectures; it implements hostapi.CPU so syscalls see the OmniVM
// register state through the machine's register mapping.
//
// Sim does not execute Prog.Code directly: Reset lowers it into a
// dense per-run form (lower.go) and Run executes that. The lowering is
// rebuilt from Prog on every Reset and never stored on the Program, so
// what runs is always the code that was verified, however the Program
// was copied or edited since; its buffer survives Detach, so a pooled
// simulator lowers without allocating. Every count a run reports —
// instructions, cycles, categories — and every fault, error and store
// is the same as executing the Insts one at a time.
type Sim struct {
	M    *Machine
	Prog *Program
	Mem  *seg.Memory
	Env  *hostapi.Env

	// MaxInsts bounds execution (0 = unlimited); exceeding it returns
	// an error mentioning "budget".
	MaxInsts uint64

	// Interrupt, when non-nil, is polled every few thousand executed
	// instructions; once it reports true, Run aborts with an error
	// mentioning "interrupted". The serving layer's per-job timeout
	// watchdog sets it from another goroutine.
	Interrupt *atomic.Bool

	// Yield, when non-nil, is called at every poll after the first, so
	// never before the first instruction and never in a run shorter than
	// one poll interval. The run's whole state is synced into the Sim
	// when it is called, and nothing in the Sim changes until it
	// returns: the serving layer time-slices jobs here, parking the
	// calling goroutine while queued jobs run.
	Yield func()

	// StoreTrace, when non-nil, observes every store the program
	// itself issues (plain stores and x86 read-modify-write MemDst
	// forms; runtime writes such as syscall results and exception
	// delivery are not program stores and are not traced). faulted
	// reports whether the segment layer refused the access. The SFI
	// differential harness uses this as its soundness oracle: a
	// verifier-accepted program must never complete a store outside
	// its data segment.
	StoreTrace func(addr, size uint32, faulted bool)

	// Register files, indexed by lowered slot: the architectural
	// registers, then slotZero and slotSink.
	r  [fileSize]uint32
	f  [fileSize]float64
	ia uint32 // latched integer compare operands
	ib uint32
	fa float64 // latched FP compare operands
	fb float64

	pc       int32
	insts    uint64
	nextPoll uint64 // insts threshold for the next Interrupt and Yield poll
	counts   [8]uint64
	// Pipeline state: the clock, issue slots used in the current
	// cycle, and the scoreboard.
	clock uint64
	slot  uint64
	avail [sbSize]uint64

	code []linst // Prog.Code lowered for M; storage kept across runs
}

// New prepares a simulator for one run of prog. The OmniVM stack
// pointer and return-address images are initialized exactly as the
// interpreter initializes them.
func New(m *Machine, prog *Program, mem *seg.Memory, env *hostapi.Env) *Sim {
	s := new(Sim)
	s.Reset(m, prog, mem, env)
	return s
}

// Reset reinitializes a simulator in place for a run of prog — New
// without the allocation, for callers that embed a Sim and reuse it
// across runs (the serving layer's pooled hosts). It clears every piece
// of run state (registers, counters, pipeline) and lowers prog for m
// into the storage the previous run left, growing it only for a longer
// program than any before.
func (s *Sim) Reset(m *Machine, prog *Program, mem *seg.Memory, env *hostapi.Env) {
	code := s.code
	*s = Sim{M: m, Prog: prog, Mem: mem, Env: env, pc: prog.Entry}
	s.code = lower(code, m, prog.Code)
	s.SetIntReg(14, env.Layout.StackTop) // OmniVM sp
	s.SetIntReg(15, 0x7fffffff)          // returning from entry halts
}

// Detach drops the simulator's references to its last run's machine,
// program, memory, environment and hooks, so that a pooled simulator
// pins none of them, and keeps the lowering storage for the next
// Reset.
func (s *Sim) Detach() {
	s.M, s.Prog, s.Mem, s.Env, s.Interrupt, s.Yield, s.StoreTrace = nil, nil, nil, nil, nil, nil, nil
}

// regSaveAddr is the memory slot of OmniVM integer register i.
func (s *Sim) regSaveAddr(i int) uint32 {
	return s.Env.Layout.RegSave + IntSlotOffset(i)
}

// IntReg returns OmniVM integer register i (hostapi.CPU).
func (s *Sim) IntReg(i int) uint32 {
	if r := s.M.OmniInt[i]; r != NoReg {
		return s.r[r]
	}
	v, _ := s.Mem.LoadU32(s.regSaveAddr(i))
	return v
}

// SetIntReg sets OmniVM integer register i (writes to r0 discarded).
func (s *Sim) SetIntReg(i int, v uint32) {
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
func (s *Sim) FPReg(i int) float64 {
	if r := s.M.OmniFP[i]; r != NoReg {
		return s.f[r-32]
	}
	v, _ := s.Mem.LoadU64(s.Env.Layout.RegSave + FPSlotOffset(i))
	return math.Float64frombits(v)
}

// SetFPReg sets OmniVM FP register i.
func (s *Sim) SetFPReg(i int, v float64) {
	if r := s.M.OmniFP[i]; r != NoReg {
		s.f[r-32] = v
		return
	}
	s.Mem.StoreU64(s.Env.Layout.RegSave+FPSlotOffset(i), math.Float64bits(v))
}

// Cycles returns elapsed simulated cycles.
func (s *Sim) Cycles() uint64 { return s.clock }

func (s *Sim) result(exit int32, faulted bool, fault string) Result {
	r := Result{ExitCode: exit, Insts: s.insts, Cycles: s.clock, Faulted: faulted, Fault: fault}
	copy(r.Counts[:], s.counts[:])
	return r
}

// exception delivers an access violation to the module's registered
// handler, or terminates the run. src is the faulting instruction's
// OmniVM index (what the handler sees in r3).
func (s *Sim) exception(kind, addr uint32, src int32, desc string) (Result, bool) {
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

// sync writes Run's loop state back.
func (s *Sim) sync(pc int, insts, clock, slot uint64) {
	s.pc, s.insts, s.clock, s.slot = int32(pc), insts, clock, slot
}

// limit is the instruction count at which Run must next stop and look:
// the budget or the next poll, whichever comes first.
func (s *Sim) limit() uint64 {
	l := uint64(math.MaxUint64)
	if s.MaxInsts > 0 {
		l = s.MaxInsts
	}
	if s.Interrupt != nil || s.Yield != nil {
		l = min(l, s.nextPoll)
	}
	return l
}

// poll makes the checks limit stands for.
func (s *Sim) poll() error {
	if s.MaxInsts > 0 && s.insts >= s.MaxInsts {
		return fmt.Errorf("target/%s: %w (%d) at pc=%d", s.M.Name, hostapi.ErrBudget, s.MaxInsts, s.pc)
	}
	// A threshold (not insts&mask == 0) because delay-slot machines
	// account two instructions per branch iteration: an exact-match
	// poll can step over every multiple of the mask and never fire.
	if (s.Interrupt != nil || s.Yield != nil) && s.insts >= s.nextPoll {
		s.nextPoll = s.insts + 0x1000
		if s.Interrupt != nil && s.Interrupt.Load() {
			return fmt.Errorf("target/%s: %w at pc=%d after %d instructions", s.M.Name, hostapi.ErrInterrupted, s.pc, s.insts)
		}
		if s.Yield != nil && s.insts > 0 {
			s.Yield()
		}
	}
	return nil
}

// Run executes until halt, exit, an unhandled exception, or the
// instruction budget.
//
// The loop keeps pc, the instruction count and the pipeline clock in
// locals and writes them back (sync) before anything that can observe
// them: a syscall, an exception, a limit check, a return. The budget,
// Interrupt and Yield checks are one compare against limit, made where
// the Inst-at-a-time loop made them: before each instruction, except
// that a delay slot runs together with its branch.
func (s *Sim) Run() (Result, error) {
	code := s.code
	r, f, av := &s.r, &s.f, &s.avail
	mem, trace, o2n := s.Mem, s.StoreTrace, s.Prog.OmniToNative
	name, delay, disc, width := s.M.Name, s.M.HasDelaySlot, discipline(s.M), uint64(s.M.IssueWidth)

	pc, insts, clock, slot := int(s.pc), s.insts, s.clock, s.slot
	limit := s.limit()

	var (
		npc    int    // where pc goes after a non-control instruction
		inSlot bool   // executing a branch's delay slot
		taken  bool   // control transfer outcome, for xfer
		tgt    int    // ... and its target
		fk, fa uint32 // pending exception kind and address, for fault
	)
	for {
		if insts >= limit {
			s.sync(pc, insts, clock, slot)
			if err := s.poll(); err != nil {
				return Result{}, err
			}
			limit = s.limit()
		}
		if uint(pc) >= uint(len(code)) {
			s.sync(pc, insts, clock, slot)
			if res, done := s.exception(excBadJump, uint32(pc), int32(pc), fmt.Sprintf("target/%s: pc %d out of code", name, pc)); done {
				return res, nil
			}
			pc = int(s.pc)
			continue
		}
		npc, inSlot = pc+1, false
	exec:
		l := &code[pc]
		insts++
		s.counts[l.cat&7]++
		switch disc {
		case discSingle:
			clock = issueSingle(av, l, clock)
		case discDual:
			clock, slot = issueDual(av, l, clock, slot, width)
		default:
			clock, slot = issuePentium(av, l, clock, slot)
		}

		switch l.op {
		case Nop:

		// Three-register ALU.
		case Add:
			r[l.d&63] = r[l.a&63] + r[l.b&63]
		case Sub:
			r[l.d&63] = r[l.a&63] - r[l.b&63]
		case Mul:
			r[l.d&63] = uint32(int32(r[l.a&63]) * int32(r[l.b&63]))
		case Div, DivU, Rem, RemU:
			a, b := r[l.a&63], r[l.b&63]
			if b == 0 {
				fk, fa = excDivZero, 0
				goto fault
			}
			switch l.op {
			case Div:
				r[l.d&63] = uint32(int32(a) / int32(b))
			case DivU:
				r[l.d&63] = a / b
			case Rem:
				r[l.d&63] = uint32(int32(a) % int32(b))
			case RemU:
				r[l.d&63] = a % b
			}
		case And:
			r[l.d&63] = r[l.a&63] & r[l.b&63]
		case Or:
			r[l.d&63] = r[l.a&63] | r[l.b&63]
		case Xor:
			r[l.d&63] = r[l.a&63] ^ r[l.b&63]
		case Sll:
			r[l.d&63] = r[l.a&63] << (r[l.b&63] & 31)
		case Srl:
			r[l.d&63] = r[l.a&63] >> (r[l.b&63] & 31)
		case Sra:
			r[l.d&63] = uint32(int32(r[l.a&63]) >> (r[l.b&63] & 31))
		case Slt:
			r[l.d&63] = b2u(int32(r[l.a&63]) < int32(r[l.b&63]))
		case Sltu:
			r[l.d&63] = b2u(r[l.a&63] < r[l.b&63])

		// Register-immediate ALU.
		case AddI, Lea:
			r[l.d&63] = r[l.a&63] + uint32(l.imm)
		case AndI:
			r[l.d&63] = r[l.a&63] & uint32(l.imm)
		case OrI:
			r[l.d&63] = r[l.a&63] | uint32(l.imm)
		case XorI:
			r[l.d&63] = r[l.a&63] ^ uint32(l.imm)
		case SllI:
			r[l.d&63] = r[l.a&63] << (uint32(l.imm) & 31)
		case SrlI:
			r[l.d&63] = r[l.a&63] >> (uint32(l.imm) & 31)
		case SraI:
			r[l.d&63] = uint32(int32(r[l.a&63]) >> (uint32(l.imm) & 31))
		case SltI:
			r[l.d&63] = b2u(int32(r[l.a&63]) < l.imm)
		case SltuI:
			r[l.d&63] = b2u(r[l.a&63] < uint32(l.imm))

		// Constants and moves.
		case MovI:
			r[l.d&63] = uint32(l.imm)
		case Mov:
			r[l.d&63] = r[l.a&63]
		case Lui:
			r[l.d&63] = uint32(l.imm) << 16
		case Neg:
			r[l.d&63] = -r[l.a&63]

		// Memory: the segment window's inline fast path, else the
		// checked path, which resolves the segment or names the fault.
		case Lb:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 1)
			if b == nil {
				if b, fk = s.checked(a, 1, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			r[l.d&63] = uint32(int32(int8(b[0])))
		case Lbu:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 1)
			if b == nil {
				if b, fk = s.checked(a, 1, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			r[l.d&63] = uint32(b[0])
		case Lh:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 2)
			if b == nil {
				if b, fk = s.checked(a, 2, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			r[l.d&63] = uint32(int32(int16(binary.LittleEndian.Uint16(b))))
		case Lhu:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 2)
			if b == nil {
				if b, fk = s.checked(a, 2, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			r[l.d&63] = uint32(binary.LittleEndian.Uint16(b))
		case Lw:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 4)
			if b == nil {
				if b, fk = s.checked(a, 4, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			r[l.d&63] = binary.LittleEndian.Uint32(b)
		case Lf:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 4)
			if b == nil {
				if b, fk = s.checked(a, 4, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			f[l.d&63] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
		case Ld:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.LoadSpan(a, 8)
			if b == nil {
				if b, fk = s.checked(a, 8, seg.AccLoad); b == nil {
					fa = a
					goto fault
				}
			}
			f[l.d&63] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		case Sb:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.StoreSpan(a, 1)
			if b == nil {
				if b, fk = s.checked(a, 1, seg.AccStore); b == nil {
					fa = a
					goto storeFault
				}
			}
			b[0] = uint8(r[l.d&63])
			if trace != nil {
				trace(a, 1, false)
			}
		case Sh:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.StoreSpan(a, 2)
			if b == nil {
				if b, fk = s.checked(a, 2, seg.AccStore); b == nil {
					fa = a
					goto storeFault
				}
			}
			binary.LittleEndian.PutUint16(b, uint16(r[l.d&63]))
			if trace != nil {
				trace(a, 2, false)
			}
		case Sw:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.StoreSpan(a, 4)
			if b == nil {
				if b, fk = s.checked(a, 4, seg.AccStore); b == nil {
					fa = a
					goto storeFault
				}
			}
			binary.LittleEndian.PutUint32(b, r[l.d&63])
			if trace != nil {
				trace(a, 4, false)
			}
		case Sf:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.StoreSpan(a, 4)
			if b == nil {
				if b, fk = s.checked(a, 4, seg.AccStore); b == nil {
					fa = a
					goto storeFault
				}
			}
			binary.LittleEndian.PutUint32(b, math.Float32bits(float32(f[l.d&63])))
			if trace != nil {
				trace(a, 4, false)
			}
		case Sd:
			a := r[l.a&63] + r[l.b&63] + uint32(l.imm)
			b := mem.StoreSpan(a, 8)
			if b == nil {
				if b, fk = s.checked(a, 8, seg.AccStore); b == nil {
					fa = a
					goto storeFault
				}
			}
			binary.LittleEndian.PutUint64(b, math.Float64bits(f[l.d&63]))
			if trace != nil {
				trace(a, 8, false)
			}
		case opMemSrc, opMemDst:
			if fk, fa = s.memALU(l); fk != 0 {
				goto fault
			}

		// FP arithmetic: single-precision forms round through float32,
		// exactly as the interpreter does.
		case FaddS:
			f[l.d&63] = float64(float32(f[l.a&63]) + float32(f[l.b&63]))
		case FsubS:
			f[l.d&63] = float64(float32(f[l.a&63]) - float32(f[l.b&63]))
		case FmulS:
			f[l.d&63] = float64(float32(f[l.a&63]) * float32(f[l.b&63]))
		case FdivS:
			f[l.d&63] = float64(float32(f[l.a&63]) / float32(f[l.b&63]))
		case FaddD:
			f[l.d&63] = f[l.a&63] + f[l.b&63]
		case FsubD:
			f[l.d&63] = f[l.a&63] - f[l.b&63]
		case FmulD:
			f[l.d&63] = f[l.a&63] * f[l.b&63]
		case FdivD:
			f[l.d&63] = f[l.a&63] / f[l.b&63]
		case FnegS:
			f[l.d&63] = float64(-float32(f[l.a&63]))
		case FnegD:
			f[l.d&63] = -f[l.a&63]
		case FabsS:
			f[l.d&63] = float64(float32(math.Abs(f[l.a&63])))
		case FabsD:
			f[l.d&63] = math.Abs(f[l.a&63])
		case Fmov:
			f[l.d&63] = f[l.a&63]
		case MovWF:
			f[l.d&63] = float64(math.Float32frombits(r[l.a&63]))
		case MovFW:
			r[l.d&63] = math.Float32bits(float32(f[l.a&63]))
		case CvtWS:
			f[l.d&63] = float64(float32(int32(r[l.a&63])))
		case CvtWD:
			f[l.d&63] = float64(int32(r[l.a&63]))
		case CvtSW:
			r[l.d&63] = uint32(truncToI32(float64(float32(f[l.a&63]))))
		case CvtDW:
			r[l.d&63] = uint32(truncToI32(f[l.a&63]))
		case CvtSD, CvtDS:
			f[l.d&63] = float64(float32(f[l.a&63]))

		// Compares latch operands; the CC on the branch decides how they
		// are interpreted.
		case Cmp:
			s.ia, s.ib = r[l.a&63], r[l.b&63]
		case CmpI, CmpUI:
			s.ia, s.ib = r[l.a&63], uint32(l.imm)
		case Fcmp:
			s.fa, s.fb = f[l.a&63], f[l.b&63]

		// Control transfers.
		case Bcc:
			taken, tgt = intCC(CC(l.sub), s.ia, s.ib), int(l.tgt)
			goto xfer
		case FBcc:
			taken, tgt = fpCC(CC(l.sub), s.fa, s.fb), int(l.tgt)
			goto xfer
		case Beq:
			taken, tgt = r[l.a&63] == r[l.b&63], int(l.tgt)
			goto xfer
		case Bne:
			taken, tgt = r[l.a&63] != r[l.b&63], int(l.tgt)
			goto xfer
		case Beqz:
			taken, tgt = r[l.a&63] == 0, int(l.tgt)
			goto xfer
		case Bnez:
			taken, tgt = r[l.a&63] != 0, int(l.tgt)
			goto xfer
		case Bltz:
			taken, tgt = int32(r[l.a&63]) < 0, int(l.tgt)
			goto xfer
		case Blez:
			taken, tgt = int32(r[l.a&63]) <= 0, int(l.tgt)
			goto xfer
		case Bgtz:
			taken, tgt = int32(r[l.a&63]) > 0, int(l.tgt)
			goto xfer
		case Bgez:
			taken, tgt = int32(r[l.a&63]) >= 0, int(l.tgt)
			goto xfer
		case J:
			taken, tgt = true, int(l.tgt)
			goto xfer
		case Jal:
			r[l.d&63] = uint32(l.imm)
			taken, tgt = true, int(l.tgt)
			goto xfer
		case Jr, Jalr:
			// An indirect target is a runtime code address: an OmniVM
			// index for translated programs, a native index otherwise.
			// Jalr reads its target before the link write (jalr rd, rd
			// is legal).
			v := r[l.a&63]
			r[l.d&63] = uint32(l.imm)
			taken, tgt = true, int(int32(v))
			if o2n != nil {
				if v >= uint32(len(o2n)) {
					s.sync(pc, insts, clock, slot)
					if res, done := s.exception(excBadJump, v, s.Prog.Code[pc].Src, fmt.Sprintf("target/%s: bad indirect target %#x", name, v)); done {
						return res, nil
					}
					pc = int(s.pc)
					continue
				}
				tgt = int(o2n[v])
			}
			goto xfer

		// System. In a delay slot, where no control transfer may be,
		// Break and Halt do nothing.
		case Syscall:
			s.sync(pc, insts, clock, slot)
			if err := s.Env.Syscall(l.imm, s); err != nil {
				return Result{}, fmt.Errorf("target/%s: pc=%d: %w", name, pc, err)
			}
			if s.Env.Exited {
				return s.result(s.Env.ExitCode, false, ""), nil
			}
		case Break:
			if !inSlot {
				s.sync(pc, insts, clock, slot)
				if res, done := s.exception(excBreak, uint32(pc), s.Prog.Code[pc].Src, fmt.Sprintf("target/%s: breakpoint at %d", name, pc)); done {
					return res, nil
				}
				pc = int(s.pc)
				continue
			}
		case Halt:
			if !inSlot {
				s.sync(pc, insts, clock, slot)
				return s.result(int32(s.IntReg(1)), false, ""), nil
			}
		}
		pc = npc
		continue

	xfer:
		// A control transfer; on the delay-slot machines the following
		// instruction runs first, unless the branch is the last one.
		if !delay {
			if !taken {
				tgt = pc + 1
			}
			pc = tgt
			continue
		}
		if !taken {
			tgt = pc + 2
		}
		if pc+1 < len(code) {
			if op := code[pc+1].op; (op >= Bcc && op <= Jalr) || op == Syscall {
				s.sync(pc, insts, clock, slot)
				return Result{}, fmt.Errorf("target/%s: control transfer in delay slot at %d", name, pc+1)
			}
			pc, npc, inSlot = pc+1, tgt, true
			goto exec
		}
		pc = tgt
		continue

	storeFault:
		if trace != nil {
			trace(fa, storeSize(l.op), true)
		}
	fault:
		s.sync(pc, insts, clock, slot)
		{
			desc := fmt.Sprintf("target/%s: memory fault at %#x (pc=%d)", name, fa, pc)
			if inSlot {
				desc = fmt.Sprintf("target/%s: fault in delay slot at %d", name, pc)
			}
			if res, done := s.exception(fk, fa, s.Prog.Code[pc].Src, desc); done {
				return res, nil
			}
		}
		pc = int(s.pc)
	}
}

func intCC(cc CC, a, b uint32) bool {
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

func fpCC(cc CC, a, b float64) bool {
	switch cc {
	case CCEq:
		return a == b
	case CCNe:
		return a != b
	case CCLt, CCLtU:
		return a < b
	case CCLe, CCLeU:
		return a <= b
	case CCGt, CCGtU:
		return a > b
	case CCGe, CCGeU:
		return a >= b
	}
	return false
}

// checked takes an access the segment window missed through the
// checked path: the bytes, or nil and the pending exception kind.
func (s *Sim) checked(addr, n uint32, acc seg.Access) ([]byte, uint32) {
	b, flt := s.Mem.Span(addr, n, acc)
	if flt != nil {
		return nil, faultKind(flt)
	}
	return b, 0
}

// storeSize is the byte width of a store opcode.
func storeSize(op Op) uint32 {
	switch op {
	case Sb:
		return 1
	case Sh:
		return 2
	case Sd:
		return 8
	}
	return 4
}

// memALU executes the x86 register-memory forms: opMemSrc computes
// rd = sub(rs1, mem[rs2+imm]); opMemDst computes mem[imm] sub= operand,
// where the operand is rs1 or (register-free form) Target — lowered to
// rs1 + tgt with the absent half reading zero.
func (s *Sim) memALU(l *linst) (uint32, uint32) {
	op := Op(l.sub)
	if l.op == opMemSrc {
		addr := s.r[l.b&63] + uint32(l.imm)
		v, flt := s.Mem.LoadU32(addr)
		if flt != nil {
			return faultKind(flt), addr
		}
		s.r[l.d&63] = aluApply(op, s.r[l.a&63], v)
		return 0, 0
	}
	addr := uint32(l.imm)
	v, flt := s.Mem.LoadU32(addr)
	if flt != nil {
		return faultKind(flt), addr
	}
	flt = s.Mem.StoreU32(addr, aluApply(op, v, s.r[l.a&63]+uint32(l.tgt)))
	if s.StoreTrace != nil {
		s.StoreTrace(addr, 4, flt != nil)
	}
	if flt != nil {
		return faultKind(flt), addr
	}
	return 0, 0
}

// aluApply evaluates a two-operand ALU operation for the
// register-memory forms (immediate opcodes take the same data path).
func aluApply(op Op, a, b uint32) uint32 {
	switch op {
	case Add, AddI, Lea:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return uint32(int32(a) * int32(b))
	case And, AndI:
		return a & b
	case Or, OrI:
		return a | b
	case Xor, XorI:
		return a ^ b
	case Sll, SllI:
		return a << (b & 31)
	case Srl, SrlI:
		return a >> (b & 31)
	case Sra, SraI:
		return uint32(int32(a) >> (b & 31))
	case Slt, SltI:
		return b2u(int32(a) < int32(b))
	case Sltu, SltuI:
		return b2u(a < b)
	}
	return a
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// truncToI32 converts with the OmniVM's defined float-to-int
// semantics: truncation toward zero, out-of-range clamped, NaN to 0.
func truncToI32(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	if v <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}
