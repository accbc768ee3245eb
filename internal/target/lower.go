package target

// linst is one lowered instruction: an Inst with every decision that
// does not depend on run state made in advance — which register-file
// slots it reads and writes, its scoreboard entries, latency and
// issue class — packed into 20 bytes (an Inst is 48). Run executes
// these; the Inst itself is read again only on an exception path, for
// its Src.
type linst struct {
	op  Op     // execution opcode: in.Op, or opMemSrc/opMemDst
	sub uint8  // the ALU op of a register-memory form; the CC of Bcc/FBcc
	cat ExpCat // Figure-1 category
	lat uint8  // result latency (issue)
	iss uint8  // issue bits (issue)
	// Register-file slots: d is the destination (a store's value
	// source), a and b the sources. Absent or mismatched registers are
	// remapped to slotZero (reads) and slotSink (writes).
	d, a, b uint8
	// Scoreboard entries (issue): three uses and the result.
	u1, u2, u3, def uint8
	imm             int32
	tgt             int32
}

// Execution opcodes past the ISA's: the x86 register-memory forms,
// whose ALU op moves to sub.
const (
	opMemSrc = NumOps + iota // rd = sub(rs1, mem[rs2+imm])
	opMemDst                 // mem[imm] = sub(mem[imm], rs1 or the Target operand)
)

// Register-file slots past the architectural 32 of each file.
const (
	slotZero = 32 // never written: reads 0
	slotSink = 33 // never read: absorbs writes
	fileSize = 64
)

// lower translates code into dst's storage (grown only when too small)
// and returns the lowered program.
func lower(dst []linst, m *Machine, code []Inst) []linst {
	if cap(dst) < len(code) {
		dst = make([]linst, len(code))
	}
	dst = dst[:len(code)]
	for i := range code {
		lowerInst(&dst[i], m, &code[i])
	}
	return dst
}

func intSrc(r Reg) uint8 {
	if r >= 0 && r < 32 {
		return uint8(r)
	}
	return slotZero
}

func fpSrc(r Reg) uint8 {
	if r >= 32 && r < 64 {
		return uint8(r - 32)
	}
	return slotZero
}

// intDst: writes to the hardwired zero register are discarded.
func intDst(m *Machine, r Reg) uint8 {
	if r >= 0 && r < 32 && r != m.ZeroReg {
		return uint8(r)
	}
	return slotSink
}

func fpDst(r Reg) uint8 {
	if r >= 32 && r < 64 {
		return uint8(r - 32)
	}
	return slotSink
}

// lowerInst lowers in into l field by field: a composite literal is
// built elsewhere in bytes and copied in words, a store-forwarding
// stall that costs more than the rest of lowering.
func lowerInst(l *linst, m *Machine, in *Inst) {
	op := in.Op
	l.op, l.sub, l.cat, l.iss = op, 0, in.Cat, 0
	l.d, l.a, l.b = slotSink, slotZero, slotZero
	l.imm, l.tgt = in.Imm, in.Target
	lowerIssue(l, m, in)
	control := op.EndsRun()
	switch {
	case !control && in.MemSrc:
		l.op, l.sub = opMemSrc, uint8(op)
		l.d, l.a, l.b = intDst(m, in.Rd), intSrc(in.Rs1), intSrc(in.Rs2)
		return
	case !control && in.MemDst:
		// The operand is rs1, or in the register-free form Target.
		l.op, l.sub = opMemDst, uint8(op)
		if in.Rs1 != NoReg {
			l.a, l.tgt = intSrc(in.Rs1), 0
		}
		return
	}
	switch {
	case op >= Add && op <= Sltu:
		l.d, l.a, l.b = intDst(m, in.Rd), intSrc(in.Rs1), intSrc(in.Rs2)
	case op >= AddI && op <= SltuI, op == Mov, op == Lea, op == Neg:
		l.d, l.a = intDst(m, in.Rd), intSrc(in.Rs1)
	case op == MovI, op == Lui:
		l.d = intDst(m, in.Rd)
	case op.IsLoad(), op.IsStore():
		// One address form: rs1 + rs2 + imm, with rs2 reading zero
		// unless indexed and imm zero if it is.
		l.a = intSrc(in.Rs1)
		if in.Indexed {
			l.b, l.imm = intSrc(in.Rs2), 0
		}
		switch op {
		case Lf, Ld:
			l.d = fpDst(in.Rd)
		case Sf, Sd:
			l.d = fpSrc(in.Rd)
		case Sb, Sh, Sw:
			l.d = intSrc(in.Rd)
		default:
			l.d = intDst(m, in.Rd)
		}
	case op >= FaddS && op <= FdivD:
		l.d, l.a, l.b = fpDst(in.Rd), fpSrc(in.Rs1), fpSrc(in.Rs2)
	case op >= FnegS && op <= Fmov, op == CvtSD, op == CvtDS:
		l.d, l.a = fpDst(in.Rd), fpSrc(in.Rs1)
	case op == MovWF, op == CvtWS, op == CvtWD:
		l.d, l.a = fpDst(in.Rd), intSrc(in.Rs1)
	case op == MovFW, op == CvtSW, op == CvtDW:
		l.d, l.a = intDst(m, in.Rd), fpSrc(in.Rs1)
	case op == Cmp, op == Beq, op == Bne:
		l.a, l.b = intSrc(in.Rs1), intSrc(in.Rs2)
	case op == CmpI, op == CmpUI, op >= Beqz && op <= Bgez, op == Jr:
		l.a = intSrc(in.Rs1)
	case op == Fcmp:
		l.a, l.b = fpSrc(in.Rs1), fpSrc(in.Rs2)
	case op == Bcc, op == FBcc:
		l.sub = uint8(in.CC)
	case op == Jal:
		l.d = intDst(m, in.Rd)
	case op == Jalr:
		l.d, l.a = intDst(m, in.Rd), intSrc(in.Rs1)
	}
}
