package translate

import (
	"omniware/internal/ovm"
	"omniware/internal/target"
)

var loadOps = map[ovm.Opcode]target.Op{
	ovm.LDB: target.Lb, ovm.LDBU: target.Lbu, ovm.LDH: target.Lh,
	ovm.LDHU: target.Lhu, ovm.LDW: target.Lw,
	ovm.LDBX: target.Lb, ovm.LDBUX: target.Lbu, ovm.LDHX: target.Lh,
	ovm.LDHUX: target.Lhu, ovm.LDWX: target.Lw,
	ovm.LDF: target.Lf, ovm.LDD: target.Ld,
	ovm.LDFX: target.Lf, ovm.LDDX: target.Ld,
}

var storeOps = map[ovm.Opcode]target.Op{
	ovm.STB: target.Sb, ovm.STH: target.Sh, ovm.STW: target.Sw,
	ovm.STBX: target.Sb, ovm.STHX: target.Sh, ovm.STWX: target.Sw,
	ovm.STF: target.Sf, ovm.STD: target.Sd,
	ovm.STFX: target.Sf, ovm.STDX: target.Sd,
}

// memAddr reduces an OmniVM memory operand to a native (base, imm,
// indexed, idx) addressing form, emitting helper instructions as
// needed. scratchHint selects which scratch register address math may
// use.
func (t *tx) memAddr(in ovm.Inst) (base target.Reg, imm int32, indexed bool, idx target.Reg) {
	m := t.m
	if in.Op.IsIndexed() {
		a := t.srcInt(in.Rs1, 0, target.CatAddr)
		b := t.srcInt(in.Rs2, 1, target.CatAddr)
		if m.Arch == target.MIPS {
			// No indexed mode: extra add (Figure 1's "addr" category).
			s := m.Scratch[0]
			t.emit(target.Inst{Op: target.Add, Rd: s, Rs1: a, Rs2: b, Cat: target.CatAddr})
			return s, 0, false, target.NoReg
		}
		return a, 0, true, b
	}
	// Absolute address (base is the zero register).
	if in.Rs1 == ovm.RZero {
		addr := in.Imm
		if m.Arch == target.X86 {
			return target.NoReg, addr, false, target.NoReg
		}
		if t.opt.GlobalPointer && t.si.GPValue != 0 && m.GP != target.NoReg {
			d := int64(addr) - int64(t.si.GPValue)
			if d >= -int64(m.MaxImm) && d < int64(m.MaxImm) {
				return m.GP, int32(d), false, target.NoReg
			}
		}
		hi, lo := split32(addr)
		s := m.Scratch[0]
		t.emit(target.Inst{Op: target.Lui, Rd: s, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatAddr})
		return s, lo, false, target.NoReg
	}
	b := t.srcInt(in.Rs1, 0, target.CatAddr)
	if m.Arch == target.X86 || m.FitsImm(in.Imm) {
		return b, in.Imm, false, target.NoReg
	}
	// Large offset: build the high part and add the base (the paper's
	// addr/ldi overhead for 32-bit offsets).
	hi, lo := split32(in.Imm)
	s := m.Scratch[0]
	t.emit(target.Inst{Op: target.Lui, Rd: s, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
	t.emit(target.Inst{Op: target.Add, Rd: s, Rs1: s, Rs2: b, Cat: target.CatAddr})
	return s, lo, false, target.NoReg
}

// storeNeedsSFI decides whether a store must be sandboxed. Stores
// through the stack pointer with small displacements are statically
// safe (sp is kept inside the segment by construction and the guard
// zone covers the displacement). Absolute stores are checked — and if
// necessary sandboxed — at translation time in memOp.
func storeNeedsSFI(in ovm.Inst) bool {
	if in.Op.IsIndexed() {
		return true
	}
	if in.Rs1 == ovm.RSP && in.Imm >= -GuardZone && in.Imm <= GuardZone {
		return false
	}
	if in.Rs1 == ovm.RZero {
		return false // handled by translation-time verification
	}
	return true
}

func (t *tx) memOp(in ovm.Inst) error {
	isStore := in.Op.IsStore()
	fp := in.Op.IsFP()

	if isStore && t.opt.SFI && storeNeedsSFI(in) {
		return t.sfiStore(in, fp)
	}
	if !isStore && t.opt.SFI && t.opt.ReadSFI && storeNeedsSFI(in) {
		// Read protection: sandbox loads with the same idioms as
		// stores (the "efficient read protection" of Wahbe et al. the
		// paper defers; here it is an option so its cost can be
		// measured).
		return t.sfiLoad(in, fp)
	}
	if (isStore || t.opt.ReadSFI) && t.opt.SFI && in.Rs1 == ovm.RZero {
		// Absolute access: verify the link-time-constant address at
		// translation time; an address outside the data segment is
		// sandboxed into it right here (a constant rewrite — the
		// static analogue of the runtime check).
		addr := uint32(in.Imm)
		if addr < t.si.DataBase || addr > t.si.DataBase+t.si.DataMask {
			in.Imm = int32((addr & t.si.DataMask) | t.si.DataBase)
		}
	}

	base, imm, indexed, idx := t.memAddr(in)
	if isStore {
		// On x86 a slot-resident store value needs scratch 1, which an
		// indexed address may already occupy: collapse the address into
		// scratch 0 first.
		if indexed && !fp && t.m.Arch == target.X86 && !t.isMapped(in.Rd) {
			s0 := t.m.Scratch[0]
			t.emit(target.Inst{Op: target.Add, Rd: s0, Rs1: base, Rs2: idx, Cat: target.CatAddr})
			base, imm, indexed, idx = s0, 0, false, target.NoReg
		}
		var v target.Reg
		if fp {
			v = t.srcFP(in.Rd, 1)
		} else {
			v = t.srcInt(in.Rd, 1, target.CatAddr)
		}
		t.emit(target.Inst{Op: storeOps[in.Op], Rd: v, Rs1: base, Rs2: idx, Imm: imm, Indexed: indexed})
		return nil
	}
	if fp {
		rd, flush := t.dstFP(in.Rd)
		t.emit(target.Inst{Op: loadOps[in.Op], Rd: rd, Rs1: base, Rs2: idx, Imm: imm, Indexed: indexed})
		flush()
		return nil
	}
	rd, flush := t.dstInt(in.Rd, target.CatAddr)
	t.emit(target.Inst{Op: loadOps[in.Op], Rd: rd, Rs1: base, Rs2: idx, Imm: imm, Indexed: indexed})
	flush()
	return nil
}

// sfiStore emits the sandboxed form of a store. The sandbox masks the
// *base* register into the module's data segment; displacements are
// covered by guard zones (Wahbe et al.). Sequences per target:
//
//	MIPS:      and sfi, base, mask ; or sfi, sfi, segbase ; st v, imm(sfi)
//	PPC/SPARC: and sfi, base, mask ; st v, [segbase + sfi]   (imm folded
//	           into the masked register first when nonzero)
//	x86:       and ebp, base, maskimm ; or ebp, ebp, baseimm ; st v, imm(ebp)
//
// With SFIHoist, consecutive stores through the same unmodified base
// reuse the sandboxed register.
func (t *tx) sfiStore(in ovm.Inst, fp bool) error {
	m := t.m
	sfi := m.SFIAddr

	// Compute the base to sandbox (and the displacement that remains).
	// Displacements beyond the guard zone must be folded into the
	// sandboxed quantity, otherwise a huge constant offset would step
	// right over the masked base (the compiler's 32-bit offsets make
	// this reachable from ordinary C).
	var rawBase target.Reg
	imm := int32(0)
	key := -1
	if in.Op.IsIndexed() {
		a := t.srcInt(in.Rs1, 0, target.CatAddr)
		b := t.srcInt(in.Rs2, 1, target.CatAddr)
		t.emit(target.Inst{Op: target.Add, Rd: sfi, Rs1: a, Rs2: b, Cat: target.CatSFI})
		rawBase = sfi
	} else if in.Imm < -GuardZone || in.Imm > GuardZone {
		base := t.srcInt(in.Rs1, 0, target.CatAddr)
		if m.Arch == target.X86 {
			t.emit(target.Inst{Op: target.Lea, Rd: sfi, Rs1: base, Rs2: target.NoReg, Imm: in.Imm, Cat: target.CatSFI})
		} else if m.FitsImm(in.Imm) {
			t.emit(target.Inst{Op: target.AddI, Rd: sfi, Rs1: base, Rs2: target.NoReg, Imm: in.Imm, Cat: target.CatSFI})
		} else {
			s1 := m.Scratch[1]
			hi, lo := split32(in.Imm)
			t.emit(target.Inst{Op: target.Lui, Rd: s1, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
			if lo != 0 {
				t.emit(target.Inst{Op: target.OrI, Rd: s1, Rs1: s1, Rs2: target.NoReg, Imm: lo, Cat: target.CatLdi})
			}
			t.emit(target.Inst{Op: target.Add, Rd: sfi, Rs1: base, Rs2: s1, Cat: target.CatSFI})
		}
		rawBase = sfi
	} else {
		rawBase = t.srcInt(in.Rs1, 0, target.CatAddr)
		imm = in.Imm
		key = int(in.Rs1)
	}

	reuse := t.opt.SFIHoist && key >= 0 && t.sbBase == key && rawBase != sfi
	if !reuse {
		switch m.Arch {
		case target.X86:
			t.emit(target.Inst{Op: target.AndI, Rd: sfi, Rs1: rawBase, Rs2: target.NoReg, Imm: int32(t.si.DataMask), Cat: target.CatSFI})
			t.emit(target.Inst{Op: target.OrI, Rd: sfi, Rs1: sfi, Rs2: target.NoReg, Imm: int32(t.si.DataBase), Cat: target.CatSFI})
		case target.MIPS:
			t.emit(target.Inst{Op: target.And, Rd: sfi, Rs1: rawBase, Rs2: m.SFIMask, Cat: target.CatSFI})
			t.emit(target.Inst{Op: target.Or, Rd: sfi, Rs1: sfi, Rs2: m.SFIBase, Cat: target.CatSFI})
		default: // PPC, SPARC: masked offset + indexed store via segbase
			t.emit(target.Inst{Op: target.And, Rd: sfi, Rs1: rawBase, Rs2: m.SFIMask, Cat: target.CatSFI})
		}
		if key >= 0 {
			t.sbBase = key
		} else {
			t.sbBase = -1
		}
	}

	var v target.Reg
	if fp {
		v = t.srcFP(in.Rd, 1)
	} else {
		v = t.srcInt(in.Rd, 1, target.CatAddr)
	}

	switch m.Arch {
	case target.X86, target.MIPS:
		t.emit(target.Inst{Op: storeOps[in.Op], Rd: v, Rs1: sfi, Rs2: target.NoReg, Imm: imm})
	default:
		// PPC/SPARC: fold a displacement into the masked register, then
		// store indexed off the segment base register.
		addrReg := sfi
		if imm != 0 {
			t.emit(target.Inst{Op: target.AddI, Rd: sfi, Rs1: sfi, Rs2: target.NoReg, Imm: imm, Cat: target.CatSFI})
			// The displacement invalidates reuse of the sandboxed base.
			t.sbBase = -1
		}
		t.emit(target.Inst{Op: storeOps[in.Op], Rd: v, Rs1: m.SFIBase, Rs2: addrReg, Indexed: true})
	}
	return nil
}

// sfiLoad sandboxes a load exactly like sfiStore sandboxes a store.
func (t *tx) sfiLoad(in ovm.Inst, fp bool) error {
	m := t.m
	sfi := m.SFIAddr

	var rawBase target.Reg
	imm := int32(0)
	key := -1
	switch {
	case in.Op.IsIndexed():
		a := t.srcInt(in.Rs1, 0, target.CatAddr)
		b := t.srcInt(in.Rs2, 1, target.CatAddr)
		t.emit(target.Inst{Op: target.Add, Rd: sfi, Rs1: a, Rs2: b, Cat: target.CatSFI})
		rawBase = sfi
	case in.Imm < -GuardZone || in.Imm > GuardZone:
		base := t.srcInt(in.Rs1, 0, target.CatAddr)
		if m.Arch == target.X86 {
			t.emit(target.Inst{Op: target.Lea, Rd: sfi, Rs1: base, Rs2: target.NoReg, Imm: in.Imm, Cat: target.CatSFI})
		} else if m.FitsImm(in.Imm) {
			t.emit(target.Inst{Op: target.AddI, Rd: sfi, Rs1: base, Rs2: target.NoReg, Imm: in.Imm, Cat: target.CatSFI})
		} else {
			s1 := m.Scratch[1]
			hi, lo := split32(in.Imm)
			t.emit(target.Inst{Op: target.Lui, Rd: s1, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
			if lo != 0 {
				t.emit(target.Inst{Op: target.OrI, Rd: s1, Rs1: s1, Rs2: target.NoReg, Imm: lo, Cat: target.CatLdi})
			}
			t.emit(target.Inst{Op: target.Add, Rd: sfi, Rs1: base, Rs2: s1, Cat: target.CatSFI})
		}
		rawBase = sfi
	default:
		rawBase = t.srcInt(in.Rs1, 0, target.CatAddr)
		imm = in.Imm
		key = int(in.Rs1)
	}

	reuse := t.opt.SFIHoist && key >= 0 && t.sbBase == key && rawBase != sfi
	if !reuse {
		switch m.Arch {
		case target.X86:
			t.emit(target.Inst{Op: target.AndI, Rd: sfi, Rs1: rawBase, Rs2: target.NoReg, Imm: int32(t.si.DataMask), Cat: target.CatSFI})
			t.emit(target.Inst{Op: target.OrI, Rd: sfi, Rs1: sfi, Rs2: target.NoReg, Imm: int32(t.si.DataBase), Cat: target.CatSFI})
		case target.MIPS:
			t.emit(target.Inst{Op: target.And, Rd: sfi, Rs1: rawBase, Rs2: m.SFIMask, Cat: target.CatSFI})
			t.emit(target.Inst{Op: target.Or, Rd: sfi, Rs1: sfi, Rs2: m.SFIBase, Cat: target.CatSFI})
		default:
			t.emit(target.Inst{Op: target.And, Rd: sfi, Rs1: rawBase, Rs2: m.SFIMask, Cat: target.CatSFI})
		}
		if key >= 0 {
			t.sbBase = key
		} else {
			t.sbBase = -1
		}
	}

	emitLoad := func(base target.Reg, off int32, indexed bool, idx target.Reg) error {
		op := loadOps[in.Op]
		if fp {
			rd, flush := t.dstFP(in.Rd)
			t.emit(target.Inst{Op: op, Rd: rd, Rs1: base, Rs2: idx, Imm: off, Indexed: indexed})
			flush()
			return nil
		}
		rd, flush := t.dstInt(in.Rd, target.CatAddr)
		t.emit(target.Inst{Op: op, Rd: rd, Rs1: base, Rs2: idx, Imm: off, Indexed: indexed})
		flush()
		return nil
	}
	switch m.Arch {
	case target.X86, target.MIPS:
		return emitLoad(sfi, imm, false, target.NoReg)
	default:
		if imm != 0 {
			t.emit(target.Inst{Op: target.AddI, Rd: sfi, Rs1: sfi, Rs2: target.NoReg, Imm: imm, Cat: target.CatSFI})
			t.sbBase = -1
		}
		return emitLoad(m.SFIBase, 0, true, sfi)
	}
}

// sandboxCode masks an indirect branch target into the code segment
// and returns the register to jump through.
func (t *tx) sandboxCode(tr target.Reg) target.Reg {
	m := t.m
	sfi := m.SFIAddr
	t.sbBase = -1 // SFIAddr is clobbered
	if m.Arch == target.X86 {
		mask := int32(nextPow2(uint32(len(t.mod.Text))) - 1)
		t.emit(target.Inst{Op: target.AndI, Rd: sfi, Rs1: tr, Rs2: target.NoReg, Imm: mask, Cat: target.CatSFI})
		return sfi
	}
	t.emit(target.Inst{Op: target.And, Rd: sfi, Rs1: tr, Rs2: m.CodeMask, Cat: target.CatSFI})
	return sfi
}

// branch expands OmniVM compare-and-branch instructions.
func (t *tx) branch(in ovm.Inst) error {
	m := t.m
	// FP branches: compare then branch on every target.
	switch in.Op {
	case ovm.FBEQ, ovm.FBNE, ovm.FBLT, ovm.FBLE:
		a := t.srcFP(in.Rs1, 0)
		b := t.srcFP(in.Rs2, 1)
		cc := map[ovm.Opcode]target.CC{
			ovm.FBEQ: target.CCEq, ovm.FBNE: target.CCNe,
			ovm.FBLT: target.CCLt, ovm.FBLE: target.CCLe,
		}[in.Op]
		t.emit(target.Inst{Op: target.Fcmp, Rd: target.NoReg, Rs1: a, Rs2: b, Cat: target.CatCmp})
		t.emit(target.Inst{Op: target.FBcc, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, CC: cc, Target: in.Imm2})
		return nil
	}

	regForm := in.Op >= ovm.BEQ && in.Op <= ovm.BGEU
	var cc target.CC
	if regForm {
		cc = ovmBrCC(in.Op, ovm.BEQ)
	} else {
		cc = ovmBrCC(in.Op, ovm.BEQI)
	}

	a := t.srcInt(in.Rs1, 0, target.CatAddr)

	if m.Arch == target.MIPS {
		return t.mipsBranch(in, a, cc, regForm)
	}

	// Flag-based targets: PPC, SPARC, x86.
	if regForm {
		b := t.srcInt(in.Rs2, 1, target.CatAddr)
		t.emit(target.Inst{Op: target.Cmp, Rd: target.NoReg, Rs1: a, Rs2: b, Cat: target.CatCmp})
	} else {
		op := target.CmpI
		if cc >= target.CCLtU {
			op = target.CmpUI
		}
		if m.Arch == target.X86 || m.FitsImm(in.Imm) {
			t.emit(target.Inst{Op: op, Rd: target.NoReg, Rs1: a, Rs2: target.NoReg, Imm: in.Imm, Cat: target.CatCmp})
		} else {
			s := m.Scratch[1]
			hi, lo := split32(in.Imm)
			t.emit(target.Inst{Op: target.Lui, Rd: s, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
			if lo != 0 {
				t.emit(target.Inst{Op: target.OrI, Rd: s, Rs1: s, Rs2: target.NoReg, Imm: lo, Cat: target.CatLdi})
			}
			t.emit(target.Inst{Op: target.Cmp, Rd: target.NoReg, Rs1: a, Rs2: s, Cat: target.CatCmp})
		}
	}
	t.emit(target.Inst{Op: target.Bcc, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, CC: cc, Target: in.Imm2})
	return nil
}

// ovmBrCC maps an OmniVM branch opcode (starting at base) to a CC.
func ovmBrCC(op, base ovm.Opcode) target.CC {
	return [...]target.CC{
		target.CCEq, target.CCNe, target.CCLt, target.CCLe, target.CCGt,
		target.CCGe, target.CCLtU, target.CCLeU, target.CCGtU, target.CCGeU,
	}[op-base]
}

// mipsBranch expands branches for MIPS: beq/bne take two registers,
// comparisons against zero have single-instruction forms, everything
// else needs a slt-style compare first (Figure 1's "cmp" category on
// MIPS is small precisely because most branches compare against zero).
func (t *tx) mipsBranch(in ovm.Inst, a target.Reg, cc target.CC, regForm bool) error {
	m := t.m
	emitB := func(op target.Op, rs1, rs2 target.Reg) {
		t.emit(target.Inst{Op: op, Rd: target.NoReg, Rs1: rs1, Rs2: rs2, Target: in.Imm2})
	}
	if regForm {
		b := t.srcInt(in.Rs2, 1, target.CatAddr)
		switch cc {
		case target.CCEq:
			emitB(target.Beq, a, b)
			return nil
		case target.CCNe:
			emitB(target.Bne, a, b)
			return nil
		}
		s := m.Scratch[0]
		// a<b etc via slt + branch on zero/nonzero.
		switch cc {
		case target.CCLt:
			t.emit(target.Inst{Op: target.Slt, Rd: s, Rs1: a, Rs2: b, Cat: target.CatCmp})
			emitB(target.Bnez, s, target.NoReg)
		case target.CCGe:
			t.emit(target.Inst{Op: target.Slt, Rd: s, Rs1: a, Rs2: b, Cat: target.CatCmp})
			emitB(target.Beqz, s, target.NoReg)
		case target.CCGt:
			t.emit(target.Inst{Op: target.Slt, Rd: s, Rs1: b, Rs2: a, Cat: target.CatCmp})
			emitB(target.Bnez, s, target.NoReg)
		case target.CCLe:
			t.emit(target.Inst{Op: target.Slt, Rd: s, Rs1: b, Rs2: a, Cat: target.CatCmp})
			emitB(target.Beqz, s, target.NoReg)
		case target.CCLtU:
			t.emit(target.Inst{Op: target.Sltu, Rd: s, Rs1: a, Rs2: b, Cat: target.CatCmp})
			emitB(target.Bnez, s, target.NoReg)
		case target.CCGeU:
			t.emit(target.Inst{Op: target.Sltu, Rd: s, Rs1: a, Rs2: b, Cat: target.CatCmp})
			emitB(target.Beqz, s, target.NoReg)
		case target.CCGtU:
			t.emit(target.Inst{Op: target.Sltu, Rd: s, Rs1: b, Rs2: a, Cat: target.CatCmp})
			emitB(target.Bnez, s, target.NoReg)
		case target.CCLeU:
			t.emit(target.Inst{Op: target.Sltu, Rd: s, Rs1: b, Rs2: a, Cat: target.CatCmp})
			emitB(target.Beqz, s, target.NoReg)
		}
		return nil
	}

	// Immediate forms.
	imm := in.Imm
	if imm == 0 {
		switch cc {
		case target.CCEq:
			emitB(target.Beqz, a, target.NoReg)
			return nil
		case target.CCNe:
			emitB(target.Bnez, a, target.NoReg)
			return nil
		case target.CCLt:
			emitB(target.Bltz, a, target.NoReg)
			return nil
		case target.CCLe:
			emitB(target.Blez, a, target.NoReg)
			return nil
		case target.CCGt:
			emitB(target.Bgtz, a, target.NoReg)
			return nil
		case target.CCGe:
			emitB(target.Bgez, a, target.NoReg)
			return nil
		}
	}
	s := m.Scratch[0]
	switch cc {
	case target.CCEq, target.CCNe:
		// Load the constant, then beq/bne (the paper's ldi overhead for
		// compare-against-constant branches on MIPS).
		s2 := m.Scratch[1]
		if m.FitsImm(imm) {
			t.emit(target.Inst{Op: target.AddI, Rd: s2, Rs1: m.ZeroReg, Rs2: target.NoReg, Imm: imm, Cat: target.CatLdi})
		} else {
			hi, lo := split32(imm)
			t.emit(target.Inst{Op: target.Lui, Rd: s2, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
			if lo != 0 {
				t.emit(target.Inst{Op: target.OrI, Rd: s2, Rs1: s2, Rs2: target.NoReg, Imm: lo, Cat: target.CatLdi})
			}
		}
		if cc == target.CCEq {
			emitB(target.Beq, a, s2)
		} else {
			emitB(target.Bne, a, s2)
		}
	case target.CCLt, target.CCGe, target.CCLtU, target.CCGeU:
		op := target.SltI
		if cc == target.CCLtU || cc == target.CCGeU {
			op = target.SltuI
		}
		if m.FitsImm(imm) {
			t.emit(target.Inst{Op: op, Rd: s, Rs1: a, Rs2: target.NoReg, Imm: imm, Cat: target.CatCmp})
		} else {
			s2 := m.Scratch[1]
			hi, lo := split32(imm)
			t.emit(target.Inst{Op: target.Lui, Rd: s2, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
			if lo != 0 {
				t.emit(target.Inst{Op: target.OrI, Rd: s2, Rs1: s2, Rs2: target.NoReg, Imm: lo, Cat: target.CatLdi})
			}
			rr := target.Slt
			if op == target.SltuI {
				rr = target.Sltu
			}
			t.emit(target.Inst{Op: rr, Rd: s, Rs1: a, Rs2: s2, Cat: target.CatCmp})
		}
		if cc == target.CCLt || cc == target.CCLtU {
			emitB(target.Bnez, s, target.NoReg)
		} else {
			emitB(target.Beqz, s, target.NoReg)
		}
	case target.CCLe, target.CCGt, target.CCLeU, target.CCGtU:
		// x <= imm  <=>  x < imm+1 (watch overflow).
		op := target.SltI
		uns := cc == target.CCLeU || cc == target.CCGtU
		if uns {
			op = target.SltuI
		}
		overflow := (!uns && imm == 0x7fffffff) || (uns && uint32(imm) == 0xffffffff)
		if !overflow && m.FitsImm(imm+1) {
			t.emit(target.Inst{Op: op, Rd: s, Rs1: a, Rs2: target.NoReg, Imm: imm + 1, Cat: target.CatCmp})
			if cc == target.CCLe || cc == target.CCLeU {
				emitB(target.Bnez, s, target.NoReg)
			} else {
				emitB(target.Beqz, s, target.NoReg)
			}
			return nil
		}
		// General: build constant, compare reg-reg swapped.
		s2 := m.Scratch[1]
		hi, lo := split32(imm)
		t.emit(target.Inst{Op: target.Lui, Rd: s2, Rs1: target.NoReg, Rs2: target.NoReg, Imm: hi, Cat: target.CatLdi})
		if lo != 0 {
			t.emit(target.Inst{Op: target.OrI, Rd: s2, Rs1: s2, Rs2: target.NoReg, Imm: lo, Cat: target.CatLdi})
		}
		rr := target.Slt
		if uns {
			rr = target.Sltu
		}
		t.emit(target.Inst{Op: rr, Rd: s, Rs1: s2, Rs2: a, Cat: target.CatCmp}) // imm < a
		if cc == target.CCGt || cc == target.CCGtU {
			emitB(target.Bnez, s, target.NoReg)
		} else {
			emitB(target.Beqz, s, target.NoReg)
		}
	}
	return nil
}
