package target

// The cycle-accounting model: a register scoreboard plus each
// machine's issue discipline. It charges the stalls the paper's
// machines exhibit — the R4400 load-use interlock, SuperSPARC result
// latencies, 601 dual dispatch with branch folding, and Pentium U/V
// pairing with AGI stalls — without modelling caches (EXPERIMENTS.md
// measures a perfect-memory pipeline).
//
// Everything an instruction's issue depends on that is not run state —
// which scoreboard entries it reads and writes, its latency, its
// pairing class — is decided once, when Reset lowers the program
// (lowerIssue). What is left per instruction is the scoreboard walk in
// one of three issue functions, one per discipline, which Run picks
// once per run.

// Scoreboard entries: avail[r] for r in 0..63 is the cycle register r's
// pending result becomes usable; the three above them stand in for "no
// register" so that issue never branches on an absent operand.
const (
	sbNone = 64 // read by an absent operand: never written, so never stalls
	sbSink = 65 // written by an instruction with no result: never read
	sbFlag = 66 // the latched compare operands Bcc/FBcc wait on
	sbSize = 256
)

// Issue bits of a lowered instruction. Above the two Pentium flags,
// the issue slots it takes on a multi-issue machine: 1; 0 for a branch
// the 601 folds out of the dispatch stream; 2 for the rest of the
// cycle; 4 for the rest of the cycle and one more (the Pentium's
// read-modify-write form).
const (
	issAGI   = 1 << iota // Pentium AGI: u1, the address base, is needed a cycle early
	issFlush             // Pentium: an occupied U ends the cycle before this issues
	issW                 // the slots taken, in units of issW
)

// Issue disciplines, chosen once per run.
const (
	discSingle  = iota // MIPS, SPARC
	discDual           // the 601: IssueWidth slots, branch folding
	discPentium        // U/V pairing
)

func discipline(m *Machine) int {
	switch {
	case m.Pairing:
		return discPentium
	case m.IssueWidth > 1:
		return discDual
	}
	return discSingle
}

// board is register r's scoreboard entry when it is read.
func board(r Reg) uint8 {
	if r >= 0 && r < 64 {
		return uint8(r)
	}
	return sbNone
}

// lowerIssue fills l's scoreboard entries, latency and issue bits from
// in, on m.
func lowerIssue(l *linst, m *Machine, in *Inst) {
	op := in.Op
	l.u1, l.u2, l.u3 = board(in.Rs1), board(in.Rs2), sbNone
	// Stores read Rd as the value operand. The Pentium's store buffer
	// picks the data up after issue, so stores there wait only on their
	// address registers.
	if op.IsStore() && !m.Pairing {
		l.u3 = board(in.Rd)
	}
	if op == Bcc || op == FBcc {
		l.u3 = sbFlag
	}

	l.lat = m.Latency[op]
	l.def = sbSink
	switch op {
	case Cmp, CmpI, CmpUI, Fcmp:
		// On the branch-folding 601 the CR result forwards straight to
		// the fold stage; elsewhere the branch sees it a cycle later.
		l.def = sbFlag
		if m.BranchFolding {
			l.lat = 0
		}
	default:
		if in.Rd >= 0 && in.Rd < 64 && !op.IsStore() {
			l.def = uint8(in.Rd)
		}
	}

	branch := op.IsBranch() || op.IsJump()
	switch {
	case m.Pairing:
		l.iss = pentiumIssue(l, op, in)
	case m.BranchFolding && branch:
		// Folded out of the dispatch stream: no slot consumed.
	default:
		l.iss = 1 * issW
	}
}

// pentiumIssue is in's issue bits under the U/V pairing rules: simple
// register ALU, moves, leas, loads and stores pair; shifts issue only
// in U; branches pair only as V and end the pair; FP, multiply, divide
// and the register-memory forms issue alone. The load-op form overlaps
// its load in the U pipe (no extra cycle beyond losing the pair); the
// read-modify-write form pays one extra cycle. It also moves the
// address base to u1 for the AGI stall.
func pentiumIssue(l *linst, op Op, in *Inst) uint8 {
	var iss uint8
	switch {
	case in.MemSrc:
		iss = issFlush | 1*issW
	case in.MemDst:
		iss = issFlush | 4*issW
	case !pentiumPairable(op):
		iss = issFlush | 2*issW
	case pentiumUOnly(op):
		iss = issFlush | 1*issW
	case op.IsBranch() || op.IsJump():
		iss = 2 * issW
	default:
		iss = 1 * issW
	}
	// AGI stall: an address base register produced in the previous
	// cycle delays address generation by one more. The base is rs1,
	// or rs2 in the load-op form; uses are symmetric, so the load-op
	// form just swaps them.
	if op.IsLoad() || op.IsStore() || op == Lea || in.MemSrc {
		if in.MemSrc {
			l.u1, l.u2 = l.u2, l.u1
		}
		if l.u1 != sbNone {
			iss |= issAGI
		}
	}
	return iss
}

// ready is the cycle l's operands are all available, never before
// clock. clock goes last: it is the one operand carried from the
// previous instruction, so the uses' maximum can be formed before it
// is known.
func ready(av *[sbSize]uint64, l *linst, clock uint64) uint64 {
	return max(av[l.u1], av[l.u2], av[l.u3], clock)
}

// issueSingle charges l on a single-issue pipeline and returns the new
// clock.
func issueSingle(av *[sbSize]uint64, l *linst, clock uint64) uint64 {
	at := ready(av, l, clock)
	av[l.def] = at + uint64(l.lat)
	return at + 1
}

// issueDual charges l on the 601: width dispatch slots per cycle,
// folded branches taking none.
func issueDual(av *[sbSize]uint64, l *linst, clock, slot, width uint64) (uint64, uint64) {
	if r := ready(av, l, clock); r > clock {
		clock, slot = r, 0
	}
	av[l.def] = clock + uint64(l.lat)
	if slot += uint64(l.iss) / issW; slot >= width {
		clock, slot = clock+1, 0
	}
	return clock, slot
}

// issuePentium charges l on the Pentium's U and V pipes. Both the AGI
// stall and the flush are candidates for the stall: u1 is also a plain
// use, so it wins only with issAGI added; slot is 0 or 1 here (whether
// U is taken), so clock+slot&flush is clock+1 exactly when U is taken
// and l must start a fresh cycle. (Written to fit Go's inlining
// budget: Run calls it per instruction.)
func issuePentium(av *[sbSize]uint64, l *linst, clock, slot uint64) (uint64, uint64) {
	iss := uint64(l.iss)
	if r := max(av[l.u1]+iss&issAGI, av[l.u2], av[l.u3], clock+slot&(iss/issFlush)); r > clock {
		clock, slot = r, 0
	}
	av[l.def] = clock + uint64(l.lat)
	if slot += iss / issW; slot >= 2 {
		clock, slot = clock+slot/2, 0
	}
	return clock, slot
}

// pentiumPairable: the simple one-cycle integer instructions.
func pentiumPairable(op Op) bool {
	switch op {
	case Nop, Add, Sub, And, Or, Xor, Slt, Sltu,
		AddI, AndI, OrI, XorI, SltI, SltuI,
		Sll, Srl, Sra, SllI, SrlI, SraI,
		MovI, Mov, Lui, Lea, Neg,
		Lb, Lbu, Lh, Lhu, Lw,
		Sb, Sh, Sw,
		Cmp, CmpI, CmpUI:
		return true
	}
	return op.IsBranch() || op.IsJump()
}

// pentiumUOnly: shifts only issue in the U pipe.
func pentiumUOnly(op Op) bool {
	switch op {
	case Sll, Srl, Sra, SllI, SrlI, SraI:
		return true
	}
	return false
}
