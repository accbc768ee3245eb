// Package absint is the second, independently-structured SFI verifier:
// an abstract interpretation over the translated program's control-flow
// graph. Where sfi.Verify runs one linear scan with block-local boolean
// facts about the dedicated sandbox register, this verifier tracks a
// small value domain — exact constants, unsigned intervals, and
// stack-pointer-relative displacements — for every register, propagates
// it along real successor edges (fall-through, branch targets, and the
// delay-slot edges of MIPS/SPARC), joins at control-flow merges, and
// runs to a fixpoint. Every store and indirect branch must then be
// discharged from the facts holding on ALL paths reaching it.
//
// The two verifiers share only the policy (sfi.Policy) and the
// violation report type; the analysis machinery is deliberately
// disjoint so a blind spot in one implementation is unlikely to be
// mirrored in the other. The differential fuzzer and the exhaustive
// small-model enumerator in this package race them against each other
// and against the executor's write-trace oracle.
//
// Shared assumptions (documented in DESIGN.md §9): the stack pointer
// is runtime-maintained and stays inside the segment, so a store
// through it with a guard-zone displacement is safe by name; and the
// omni-to-native map bounds every indirect transfer, so any target
// below its length is safe.
package absint

import (
	"fmt"

	"omniware/internal/sfi"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// Stats describes one verification pass: the proof obligations
// discharged and the size of the fixpoint computation.
type Stats struct {
	Stores     int // store obligations proven contained
	Indirects  int // indirect-branch obligations proven contained
	Blocks     int // fact boundaries (CFG leaders) in the program
	Iterations int // worklist instruction visits until fixpoint
}

// Check verifies prog against PolicyFor(m, si) and reports failure as
// an error naming the first violations, mirroring sfi.Check's contract.
func Check(prog *target.Program, m *target.Machine, si translate.SegInfo) error {
	_, err := CheckStats(prog, m, si)
	return err
}

// CheckStats is Check plus the analysis statistics.
func CheckStats(prog *target.Program, m *target.Machine, si translate.SegInfo) (Stats, error) {
	var st Stats
	vs := VerifyStats(prog, sfi.PolicyFor(m, si), &st)
	if len(vs) == 0 {
		return st, nil
	}
	const show = 3
	msg := fmt.Sprintf("absint: %d violation(s)", len(vs))
	for i, v := range vs {
		if i == show {
			msg += "; ..."
			break
		}
		msg += "; " + v.String()
	}
	return st, fmt.Errorf("%s", msg)
}

// Verify runs the analysis and returns every undischarged obligation
// (nil means the program is admitted).
func Verify(prog *target.Program, p sfi.Policy) []sfi.Violation {
	return VerifyStats(prog, p, nil)
}

// VerifyStats is Verify with an optional stats sink.
func VerifyStats(prog *target.Program, p sfi.Policy, st *Stats) []sfi.Violation {
	if p.GuardZone == 0 {
		p.GuardZone = 4096
	}
	v := &verifier{prog: prog, p: p, m: p.Machine, st: st}
	return v.run()
}

// ---------------------------------------------------------------------
// The abstract domain.

type kind uint8

const (
	top   kind = iota // nothing known (zero value)
	konst             // exactly lo (== hi), a uint32 value
	ival              // value ≡ x mod 2^32 for some x ∈ [lo, hi]
	spRel             // value = sp + d for some d ∈ [lo, hi]
)

// fact is one register's abstract value. The zero value is top.
type fact struct {
	k      kind
	lo, hi int64
}

func cst(v uint32) fact { return fact{k: konst, lo: int64(v), hi: int64(v)} }

// interval normalizes [lo, hi] to a fact. A negative lower bound is
// allowed (a guard fold below the segment wraps transiently and un-wraps
// in the subsequent address sum); bounds outside [-2^31, 2^32) go to
// top. Bit-operation rules require lo >= 0 — only addition distributes
// over the transient wrap.
func interval(lo, hi int64) fact {
	if lo > hi || lo < -(1<<31) || hi >= 1<<32 {
		return fact{}
	}
	if lo == hi && lo >= 0 {
		return fact{k: konst, lo: lo, hi: hi}
	}
	return fact{k: ival, lo: lo, hi: hi}
}

const spWindow = 1 << 31

func spRelative(lo, hi int64) fact {
	if lo > hi || lo < -spWindow || hi > spWindow {
		return fact{}
	}
	return fact{k: spRel, lo: lo, hi: hi}
}

// join is the lattice join; widen forces a growing interval to top so
// loops terminate.
func join(a, b fact, widen bool) fact {
	if a == b {
		return a
	}
	if a.k == top || b.k == top {
		return fact{}
	}
	if a.k == spRel || b.k == spRel {
		if a.k == spRel && b.k == spRel && !widen {
			return spRelative(min64(a.lo, b.lo), max64(a.hi, b.hi))
		}
		return fact{}
	}
	// konst/ival mix: both describe plain unsigned values.
	if widen && a.k == ival {
		return fact{}
	}
	return interval(min64(a.lo, b.lo), max64(a.hi, b.hi))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// state maps every register (int file 0..31; the FP file's entries are
// unused and stay top) to its fact.
type state [64]fact

func (s *state) get(r target.Reg) fact {
	if r < 0 || int(r) >= len(s) {
		return fact{}
	}
	return s[r]
}

func (s *state) set(r target.Reg, f fact) {
	if r >= 0 && int(r) < len(s) {
		s[r] = f
	}
}

// ---------------------------------------------------------------------
// The verifier.

type verifier struct {
	prog *target.Program
	p    sfi.Policy
	m    *target.Machine
	st   *Stats

	sp       target.Reg
	expected map[target.Reg]uint32 // dedicated registers' pinned values
	estab    map[target.Reg]bool   // provably loaded by the entry stub
	stubEnd  int

	cfg     *CFG
	leaders []bool // any non-fall-through entry point
	o2nDest []bool // entered via the omni-to-native map (pinned state)
}

func (v *verifier) run() []sfi.Violation {
	prog, m := v.prog, v.m
	n := len(prog.Code)
	if n == 0 {
		return nil
	}
	v.sp = m.OmniInt[14]

	v.expected = map[target.Reg]uint32{}
	pin := func(r target.Reg, val uint32) {
		if r != target.NoReg {
			v.expected[r] = val
		}
	}
	pin(m.SFIMask, v.p.DataMask)
	pin(m.SFIBase, v.p.DataBase)
	if len(prog.OmniToNative) > 0 {
		pin(m.CodeMask, uint32(len(prog.OmniToNative)-1))
	} else {
		pin(m.CodeMask, 0)
	}
	pin(m.GP, v.p.GPValue)

	v.cfg = BuildCFG(prog, m)
	v.leaders = v.cfg.Leaders
	v.o2nDest = v.cfg.O2NDest
	v.scanStub()

	// Fixpoint over per-instruction entry states.
	in := make([]state, n)
	have := make([]bool, n)
	onWork := make([]bool, n)
	var work []int32
	push := func(i int32) {
		if !onWork[i] {
			onWork[i] = true
			work = append(work, i)
		}
	}
	seed := func(i int32, s state) {
		if i < 0 || int(i) >= n {
			return
		}
		in[i] = s
		have[i] = true
		push(i)
	}
	entrySt := v.entryState()
	stubSt := v.stubState()
	seed(0, entrySt)
	seed(prog.Entry, entrySt)
	for i := range prog.Code {
		if v.o2nDest[i] {
			seed(int32(i), stubSt)
		}
	}

	iters := 0
	sbuf := make([]int32, 0, 2)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		onWork[i] = false
		iters++
		out := v.transfer(in[i], &prog.Code[i], int(i))
		for _, s := range v.cfg.Succs(int(i), sbuf[:0]) {
			if s < 0 || int(s) >= n {
				continue
			}
			if v.o2nDest[s] {
				continue // pinned to the stub state
			}
			if !have[s] {
				in[s] = out
				have[s] = true
				push(int32(s))
				continue
			}
			changed := false
			for r := range in[s] {
				j := join(in[s][r], out[r], v.leaders[s] && in[s][r].k == ival)
				if j != in[s][r] {
					in[s][r] = j
					changed = true
				}
			}
			if changed {
				push(int32(s))
			}
		}
	}

	// Verification pass: discharge every obligation from the fixpoint
	// entry states.
	var out []sfi.Violation
	bad := func(i int, k sfi.Kind, why string) {
		out = append(out, sfi.Violation{Index: i, Inst: prog.Code[i], Kind: k, Why: why})
	}
	blocks := 0
	for i := range prog.Code {
		if v.leaders[i] {
			blocks++
		}
		st := &in[i]
		code := &prog.Code[i]
		v.checkReservedWrite(st, code, i, bad)
		if code.Op.IsStore() || code.MemDst {
			if v.storeOK(st, code) {
				if v.st != nil {
					v.st.Stores++
				}
			} else {
				bad(i, sfi.KindStore, "store address not provable on all paths")
			}
		}
		if code.Op == target.Jr || code.Op == target.Jalr {
			if v.indirectOK(st, code) {
				if v.st != nil {
					v.st.Indirects++
				}
			} else {
				bad(i, sfi.KindIndirect, "indirect target not provable on all paths")
			}
		}
	}
	if v.st != nil {
		v.st.Blocks = blocks
		v.st.Iterations = iters
	}
	return out
}

// entryState holds at the program's entry: nothing known except the
// runtime-maintained stack pointer.
func (v *verifier) entryState() state {
	var s state
	if v.sp != target.NoReg {
		s.set(v.sp, spRelative(0, 0))
	}
	return s
}

// scanStub walks the straight-line prefix at the entry point, tracking
// constants, to learn which dedicated registers provably hold their
// pinned values before any module code runs. The reserved-write rule
// keeps them there for the rest of the program, making these global
// facts.
func (v *verifier) scanStub() {
	v.estab = map[target.Reg]bool{}
	st := v.entryState()
	v.stubEnd = int(v.prog.Entry)
	for i := int(v.prog.Entry); i >= 0 && i < len(v.prog.Code); i++ {
		in := &v.prog.Code[i]
		if in.Op.IsBranch() || in.Op.IsJump() ||
			in.Op == target.Syscall || in.Op == target.Break || in.Op == target.Halt {
			v.stubEnd = i
			return
		}
		st = v.transfer(st, in, i)
		if exp, ok := v.expected[in.Rd]; ok {
			f := st.get(in.Rd)
			v.estab[in.Rd] = f.k == konst && f.lo == int64(exp)
		}
		v.stubEnd = i + 1
	}
}

// stubState is the entry state of every indirect-branch destination
// and exception handler: the stub-established dedicated constants
// (write-protected, hence global), the stack pointer, top elsewhere.
func (v *verifier) stubState() state {
	s := v.entryState()
	for r, exp := range v.expected {
		if v.estab[r] {
			s.set(r, cst(exp))
		}
	}
	return s
}
