package absint

import (
	"omniware/internal/sfi"
	"omniware/internal/target"
)

// transfer computes the state after executing in from the state before
// it. Every rule mirrors exactly what the simulator computes for the
// same opcode; anything not modeled clobbers the destination to top.
func (v *verifier) transfer(st state, in *target.Inst, i int) state {
	if in.Op.IsStore() || in.MemDst {
		return st // stores write no registers
	}
	if in.Op == target.Syscall {
		// A syscall may rewrite any syscall-visible OmniVM register
		// image. The dedicated SFI registers are not images, so their
		// facts survive.
		for _, r := range v.m.OmniInt {
			if r != target.NoReg {
				st.set(r, fact{})
			}
		}
		return st
	}
	rd := in.Rd
	if rd == target.NoReg {
		return st
	}
	if in.MemSrc {
		st.set(rd, fact{})
		return st
	}
	a := st.get(in.Rs1)
	b := st.get(in.Rs2)
	var f fact
	switch in.Op {
	case target.Nop, target.Cmp, target.CmpI, target.CmpUI, target.Fcmp:
		return st

	case target.Lui:
		f = cst(uint32(in.Imm) << 16)

	case target.MovI:
		f = cst(uint32(in.Imm))

	case target.Mov:
		f = a

	case target.AddI, target.Lea:
		f = addImm(a, in)

	case target.OrI:
		f = orImm(a, in)

	case target.AndI:
		f = andImm(a, in)

	case target.And:
		f = andReg(a, b)

	case target.Or:
		f = orReg(a, b)

	case target.Jal, target.Jalr:
		// The link value is a constant: the simulator writes the
		// immediate (the OmniVM return address) to the link register.
		f = cst(uint32(in.Imm))

	default:
		f = fact{}
	}
	st.set(rd, f)
	return st
}

// addImm models rd = rs1 + imm (AddI/Lea). Constants fold with exact
// uint32 wraparound; intervals and sp-relative displacements shift (a
// negative lower bound is allowed — the sum un-wraps when the value is
// later used in address arithmetic, which the store rules bound).
func addImm(a fact, in *target.Inst) fact {
	imm := int64(in.Imm)
	switch a.k {
	case konst:
		return cst(uint32(a.lo) + uint32(in.Imm))
	case ival:
		return interval(a.lo+imm, a.hi+imm)
	case spRel:
		return spRelative(a.lo+imm, a.hi+imm)
	}
	return fact{}
}

// orImm models rd = rs1 | uint32(imm).
func orImm(a fact, in *target.Inst) fact {
	c := int64(uint32(in.Imm))
	if a.k == konst {
		return cst(uint32(a.lo) | uint32(in.Imm))
	}
	// or(x, c) ∈ [max(lo, c), hi+c] for non-negative x: the or cannot
	// clear bits of either operand and cannot exceed their sum.
	if a.k == ival && a.lo >= 0 {
		return interval(max64(a.lo, c), a.hi+c)
	}
	return fact{}
}

// andImm models rd = rs1 & uint32(imm).
func andImm(a fact, in *target.Inst) fact {
	// Exact folds (mirrored by the elder verifier's constant tracker):
	// and x, 0 is 0 whatever x holds.
	if in.Imm == 0 {
		return cst(0)
	}
	if a.k == konst {
		return cst(uint32(a.lo) & uint32(in.Imm))
	}
	// and(x, c) ≤ min(x, c) and never negative.
	ub := int64(-1)
	if in.Imm >= 0 {
		ub = int64(in.Imm)
	}
	if (a.k == ival || a.k == konst) && a.lo >= 0 && (ub < 0 || a.hi < ub) {
		ub = a.hi
	}
	if ub >= 0 {
		return interval(0, ub)
	}
	return fact{}
}

// andReg models rd = rs1 & rs2.
func andReg(a, b fact) fact {
	if a.k == konst && b.k == konst {
		return cst(uint32(a.lo) & uint32(b.lo))
	}
	ub := int64(-1)
	for _, f := range [2]fact{a, b} {
		if (f.k == konst || f.k == ival) && f.lo >= 0 && (ub < 0 || f.hi < ub) {
			ub = f.hi
		}
	}
	if ub >= 0 {
		return interval(0, ub)
	}
	return fact{}
}

// orReg models rd = rs1 | rs2.
func orReg(a, b fact) fact {
	if a.k == konst && b.k == konst {
		return cst(uint32(a.lo) | uint32(b.lo))
	}
	// One constant operand, one bounded non-negative operand.
	if a.k == konst {
		a, b = b, a
	}
	if b.k == konst && (a.k == ival || a.k == konst) && a.lo >= 0 {
		return interval(max64(a.lo, b.lo), a.hi+b.hi)
	}
	return fact{}
}

// ---------------------------------------------------------------------
// Obligations.

// storeOK discharges one store obligation from the facts holding on
// every path reaching it.
func (v *verifier) storeOK(st *state, in *target.Inst) bool {
	p := v.p
	g := int64(p.GuardZone)
	B := int64(p.DataBase)
	M := int64(p.DataMask)
	base := in.Rs1
	if in.MemDst {
		base = target.NoReg // address is the immediate
	}
	if base == target.NoReg {
		a := int64(uint32(in.Imm))
		return a >= B && a <= B+M
	}
	if in.Indexed {
		// address = rs1 + rs2 (the simulator ignores Imm here).
		lo, hi, ok := numRange(st.get(base), st.get(in.Rs2))
		return ok && lo >= B-g && hi <= B+M+g
	}
	imm := int64(in.Imm)
	// Stack-relative by name: the stack pointer is runtime-maintained
	// inside the segment (shared assumption with the elder verifier).
	if base == v.sp && imm >= -g && imm <= g {
		return true
	}
	f := st.get(base)
	switch f.k {
	case konst:
		// An exactly-known address is contained anywhere in the window
		// (mirrors the elder verifier's constant rule).
		a := int64(uint32(f.lo) + uint32(in.Imm))
		return a >= B-g && a <= B+M+g
	case ival:
		return f.lo+imm >= B-g && f.hi+imm <= B+M+g
	case spRel:
		return f.lo+imm >= -g && f.hi+imm <= g
	}
	return false
}

// indirectOK discharges one indirect-branch obligation: the target
// (an OmniVM code address) must be provably below the omni-to-native
// map length, which is what the branch indexes.
func (v *verifier) indirectOK(st *state, in *target.Inst) bool {
	f := st.get(in.Rs1)
	nmap := int64(len(v.prog.OmniToNative))
	switch f.k {
	case konst:
		return f.lo < nmap
	case ival:
		return f.lo >= 0 && f.hi < nmap
	}
	return false
}

// checkReservedWrite enforces the write-protection of the dedicated
// registers: only a constant idiom producing exactly the pinned value
// (or the lui upper half inside the entry stub, where the completing
// ori follows before any transfer) may touch them.
func (v *verifier) checkReservedWrite(st *state, in *target.Inst, i int, bad func(int, sfi.Kind, string)) {
	if in.Rd == target.NoReg || in.Op.IsStore() || in.MemDst {
		return
	}
	exp, res := v.expected[in.Rd]
	if !res {
		return
	}
	ok := false
	switch in.Op {
	case target.Lui:
		val := uint32(in.Imm) << 16
		inStub := i >= int(v.prog.Entry) && i < v.stubEnd
		ok = val == exp || (inStub && val == exp&0xffff0000)
	case target.MovI:
		ok = uint32(in.Imm) == exp
	case target.OrI:
		f := st.get(in.Rs1)
		ok = in.Rd == in.Rs1 && f.k == konst && uint32(f.lo)|uint32(in.Imm) == exp
	}
	if !ok {
		bad(i, sfi.KindReserved, "dedicated register not provably preserved")
	}
}

// numRange extracts a plain (non-sp-relative) numeric range from two
// facts and sums them modulo 2^32: when the whole range wraps (a
// constant that went through a below-zero guard fold summed with the
// segment base — found by the exhaustive enumerator as a lost-containment
// case), it is shifted back exactly. A range that only straddles the
// wrap point stays unnormalized and fails the window check, which is
// the sound direction.
func numRange(a, b fact) (lo, hi int64, ok bool) {
	num := func(f fact) (int64, int64, bool) {
		if f.k == konst || f.k == ival {
			return f.lo, f.hi, true
		}
		return 0, 0, false
	}
	al, ah, ok1 := num(a)
	bl, bh, ok2 := num(b)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	lo, hi = al+bl, ah+bh
	if lo >= 1<<32 {
		lo -= 1 << 32
		hi -= 1 << 32
	} else if hi < 0 {
		lo += 1 << 32
		hi += 1 << 32
	}
	return lo, hi, true
}
