package native

import (
	"fmt"

	"omniware/internal/cc/ir"
	"omniware/internal/cc/regalloc"
	"omniware/internal/sched"
	"omniware/internal/target"
)

// Internal target markers used during emission (resolved before the
// code leaves the emitter).
const (
	blkMark  = "$blk"  // Target is an IR block id
	unitMark = "$unit" // Target is an emission-unit id
	epiMark  = "$epi"  // jump to the function epilogue
)

type savedReg struct {
	reg target.Reg
	off int
}

type frame struct {
	size     int
	slotOff  []int
	raOff    int
	intSaves []savedReg
	fpSaves  []savedReg
	outArgs  int
}

type emitter struct {
	c  *compiler
	f  *ir.Func
	ra *regalloc.Result
	fr *frame

	units       [][]target.Inst
	cur         []target.Inst
	unitOfBlock []int
	epiUnit     int

	code []target.Inst // final, function-relative
}

func (c *compiler) emitFunc(f *ir.Func) (*emitter, error) {
	ints, intCallee, fps, fpCallee := c.regConfig()
	ra, err := regalloc.Allocate(f, regalloc.Config{
		IntRegs:        ints,
		FPRegs:         fps,
		IntCalleeSaved: intCallee,
		FPCalleeSaved:  fpCallee,
	})
	if err != nil {
		return nil, err
	}
	e := &emitter{c: c, f: f, ra: ra, unitOfBlock: make([]int, len(f.Blocks))}
	for i := range e.unitOfBlock {
		e.unitOfBlock[i] = -1
	}
	e.fr = e.buildFrame()

	// Unit 0: prologue.
	e.prologue()

	for _, b := range f.Blocks {
		e.unitOfBlock[b.ID] = e.beginUnit()
		for i := range b.Insts {
			if err := e.inst(&b.Insts[i]); err != nil {
				return nil, fmt.Errorf("block %d: %w", b.ID, err)
			}
		}
	}

	// Final unit: the shared epilogue every Ret jumps to.
	e.epiUnit = e.beginUnit()
	e.epilogueBody()
	e.endUnit()

	e.finalize()
	return e, nil
}

// endUnit closes the unit under construction.
func (e *emitter) endUnit() {
	e.units = append(e.units, e.cur)
	e.cur = nil
}

// beginUnit closes the current unit and returns the id of the next one
// (the one subsequent emits build).
func (e *emitter) beginUnit() int {
	e.endUnit()
	return len(e.units)
}

func (e *emitter) emit(in target.Inst) {
	in.Src = -1
	e.cur = append(e.cur, in)
}

// finalize schedules each unit, fills delay slots, linearizes and
// patches unit/block references.
func (e *emitter) finalize() {
	m := e.c.m
	doSched := e.c.prof == ProfCC
	fill := doSched || m.Arch == target.SPARC // gcc fills SPARC slots too
	var s sched.Scheduler
	for i, u := range e.units {
		if len(u) == 0 {
			continue
		}
		if doSched {
			s.Block(u, m)
		}
		u = sched.FillDelaySlot(u, m, fill)
		e.units[i] = u
	}
	unitStart := make([]int32, len(e.units)+1)
	pos := int32(0)
	for i, u := range e.units {
		unitStart[i] = pos
		pos += int32(len(u))
	}
	unitStart[len(e.units)] = pos

	resolve := func(id int32, sym string) int32 {
		switch sym {
		case blkMark:
			return unitStart[e.unitOfBlock[id]]
		case epiMark:
			return unitStart[e.epiUnit]
		}
		return unitStart[id]
	}
	for ui, u := range e.units {
		for i := range u {
			in := &u[i]
			switch {
			case in.Sym == blkMark || in.Sym == unitMark || in.Sym == epiMark:
				in.Target = resolve(in.Target, in.Sym)
				in.Sym = ""
			}
			if (in.Op == target.Jal || in.Op == target.Jalr) && in.Imm >= 0 {
				// Imm holds a continuation unit id.
				in.Imm = unitStart[in.Imm]
			}
			if in.Op == target.MovI && in.Sym == retMark {
				in.Imm = unitStart[in.Imm]
			}
		}
		_ = ui
	}
	e.code = e.code[:0]
	for _, u := range e.units {
		e.code = append(e.code, u...)
	}
}

// ---- frame ----

func (e *emitter) buildFrame() *frame {
	f, ra := e.f, e.ra
	fr := &frame{}
	maxOut := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op != ir.Call && in.Op != ir.Syscall {
				continue
			}
			_, _, n := splitArgs(in)
			if n > maxOut {
				maxOut = n
			}
		}
	}
	fr.outArgs = (maxOut + 7) &^ 7
	off := fr.outArgs
	fr.slotOff = make([]int, len(f.Slots))
	for i, s := range f.Slots {
		al := s.Align
		if al < 4 {
			al = 4
		}
		off = (off + al - 1) &^ (al - 1)
		fr.slotOff[i] = off
		off += (s.Size + 3) &^ 3
	}
	off = (off + 7) &^ 7
	for _, r := range ra.UsedFPCallee {
		fr.fpSaves = append(fr.fpSaves, savedReg{reg: target.Reg(r), off: off})
		off += 8
	}
	for _, r := range ra.UsedIntCallee {
		fr.intSaves = append(fr.intSaves, savedReg{reg: target.Reg(r), off: off})
		off += 4
	}
	fr.raOff = off
	off += 4
	fr.size = (off + 7) &^ 7
	return fr
}

func (e *emitter) sp() target.Reg { return e.c.m.OmniInt[14] }

// abiScratch returns the i'th integer scratch register for the ABI
// sequences (prologue/epilogue return-address staging, call argument
// moves, indirect-call targets). These run while the ABI argument
// registers hold live values, so the scratch must avoid them: the
// regalloc scratch set does everywhere except x86, whose four-register
// allocatable file makes ScratchInt coincide with the argument
// registers — there the translator scratch pair (esi/edi), which the
// native compiler never allocates, serves instead.
func (e *emitter) abiScratch(i int) target.Reg {
	if e.c.m.Arch == target.X86 {
		return e.c.m.Scratch[i]
	}
	return target.Reg(e.ra.ScratchInt[i])
}

// raReg returns the link register, or NoReg when it is memory-resident.
func (e *emitter) raReg() target.Reg { return e.c.m.OmniInt[15] }

func (e *emitter) prologue() {
	sp := e.sp()
	e.emit(target.Inst{Op: target.AddI, Rd: sp, Rs1: sp, Rs2: target.NoReg, Imm: int32(-e.fr.size)})
	s0 := e.abiScratch(0)
	if ra := e.raReg(); ra != target.NoReg {
		e.emit(target.Inst{Op: target.Sw, Rd: ra, Rs1: sp, Rs2: target.NoReg, Imm: int32(e.fr.raOff)})
	} else {
		// x86: the return index lives in the register-save area.
		e.emit(target.Inst{Op: target.Lw, Rd: s0, Rs1: target.NoReg, Rs2: target.NoReg, Imm: int32(regSaveAddr(e.c.regsave, 15))})
		e.emit(target.Inst{Op: target.Sw, Rd: s0, Rs1: sp, Rs2: target.NoReg, Imm: int32(e.fr.raOff)})
	}
	for _, sv := range e.fr.intSaves {
		e.emit(target.Inst{Op: target.Sw, Rd: sv.reg, Rs1: sp, Rs2: target.NoReg, Imm: int32(sv.off)})
	}
	for _, sv := range e.fr.fpSaves {
		e.emit(target.Inst{Op: target.Sd, Rd: sv.reg, Rs1: sp, Rs2: target.NoReg, Imm: int32(sv.off)})
	}
	e.paramMoves()
}

func (e *emitter) epilogueBody() {
	sp := e.sp()
	for _, sv := range e.fr.fpSaves {
		e.emit(target.Inst{Op: target.Ld, Rd: sv.reg, Rs1: sp, Rs2: target.NoReg, Imm: int32(sv.off)})
	}
	for _, sv := range e.fr.intSaves {
		e.emit(target.Inst{Op: target.Lw, Rd: sv.reg, Rs1: sp, Rs2: target.NoReg, Imm: int32(sv.off)})
	}
	if ra := e.raReg(); ra != target.NoReg {
		e.emit(target.Inst{Op: target.Lw, Rd: ra, Rs1: sp, Rs2: target.NoReg, Imm: int32(e.fr.raOff)})
		e.emit(target.Inst{Op: target.AddI, Rd: sp, Rs1: sp, Rs2: target.NoReg, Imm: int32(e.fr.size)})
		e.emit(target.Inst{Op: target.Jr, Rd: target.NoReg, Rs1: ra, Rs2: target.NoReg})
		return
	}
	s0 := e.abiScratch(0)
	e.emit(target.Inst{Op: target.Lw, Rd: s0, Rs1: sp, Rs2: target.NoReg, Imm: int32(e.fr.raOff)})
	e.emit(target.Inst{Op: target.AddI, Rd: sp, Rs1: sp, Rs2: target.NoReg, Imm: int32(e.fr.size)})
	e.emit(target.Inst{Op: target.Jr, Rd: target.NoReg, Rs1: s0, Rs2: target.NoReg})
}

// ---- ABI ----

// splitArgs mirrors the OmniVM calling convention on the native ABI:
// the first four integer-class args in the images of r1..r4, the first
// four FP-class args in the images of f1..f4, the rest on the stack.
func splitArgs(in *ir.Inst) (intIdx, fpIdx []int, stackBytes int) {
	intIdx = make([]int, len(in.Args))
	fpIdx = make([]int, len(in.Args))
	ni, nf, off := 0, 0, 0
	for i := range in.Args {
		intIdx[i], fpIdx[i] = -1, -1
		cls := ir.ClassW
		if i < len(in.ACls) {
			cls = in.ACls[i]
		}
		if cls.IsFP() {
			if nf < 4 {
				fpIdx[i] = nf + 1 // OmniVM f1..f4
				nf++
			} else {
				off = (off + 7) &^ 7
				fpIdx[i] = -2 - off
				off += 8
			}
		} else {
			if ni < 4 {
				intIdx[i] = ni + 1 // OmniVM r1..r4
				ni++
			} else {
				intIdx[i] = -2 - off
				off += 4
			}
		}
	}
	return intIdx, fpIdx, off
}

// regSaveAddr gives the absolute address of a memory-resident OmniVM
// register slot.
func regSaveAddr(base uint32, i int) uint32 { return base + target.IntSlotOffset(i) }
