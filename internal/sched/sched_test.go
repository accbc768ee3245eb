package sched

import (
	"fmt"
	"strings"
	"testing"

	"omniware/internal/target"
)

func mips() *target.Machine { return target.MIPSMachine() }

func inst(op target.Op, rd, rs1, rs2 target.Reg) target.Inst {
	return target.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

// checkLegal fails the test unless after is a legal schedule of before.
func checkLegal(t *testing.T, before, after []target.Inst) {
	t.Helper()
	if err := legalityErr(before, after); err != nil {
		t.Fatal(err)
	}
}

// legalityErr reports why after is not a legal reordering of before:
// every instruction must appear exactly once, and every dependence
// between two instructions of before must keep its order in after.
// The dependences are the scheduler's model, stated pairwise: register
// RAW, WAR and WAW; memory order between two memory operations when
// either writes memory; flag order between compares and between a
// compare and a flag reader; and control transfers, syscalls, halts
// and breaks order against everything.
func legalityErr(before, after []target.Inst) error {
	if len(before) != len(after) {
		return fmt.Errorf("length changed: %d -> %d", len(before), len(after))
	}
	// Equal instructions map in order. Two equal instructions that
	// touch any register, memory or the flags depend on each other, so
	// a legal schedule keeps their relative order anyway.
	at := map[target.Inst][]int{}
	for j, in := range after {
		at[in] = append(at[in], j)
	}
	pos := make([]int, len(before))
	for i, in := range before {
		q := at[in]
		if len(q) == 0 {
			return fmt.Errorf("instruction %d (%v) missing from the output", i, in)
		}
		pos[i], at[in] = q[0], q[1:]
	}
	for i := range before {
		for j := i + 1; j < len(before); j++ {
			if kind := dependence(&before[i], &before[j]); kind != "" && pos[i] > pos[j] {
				return fmt.Errorf("%s dependence %d (%v) -> %d (%v) reversed: now at %d and %d",
					kind, i, before[i], j, before[j], pos[i], pos[j])
			}
		}
	}
	return nil
}

// dependence names the kind of dependence the later instruction b has
// on the earlier a, or "" if the two may swap.
func dependence(a, b *target.Inst) string {
	wa, wb := regWritten(a), regWritten(b)
	switch {
	case isControl(a) || isControl(b):
		return "control"
	case wa != target.NoReg && regRead(b, wa):
		return "RAW"
	case wb != target.NoReg && regRead(a, wb):
		return "WAR"
	case wa != target.NoReg && wa == wb:
		return "WAW"
	case touchesMem(a) && touchesMem(b) && (writesMem(a) || writesMem(b)):
		return "memory"
	case setsFlags(a) && (setsFlags(b) || readsFlags(b)), readsFlags(a) && setsFlags(b):
		return "flag"
	}
	return ""
}

func isControl(in *target.Inst) bool {
	op := in.Op
	return op.IsBranch() || op.IsJump() || op == target.Syscall || op == target.Halt || op == target.Break
}

// regWritten is the register in writes: Rd, except for stores, whose
// Rd is the value operand.
func regWritten(in *target.Inst) target.Reg {
	if in.Op.IsStore() {
		return target.NoReg
	}
	return in.Rd
}

func regRead(in *target.Inst, r target.Reg) bool {
	return in.Rs1 == r || in.Rs2 == r || (in.Op.IsStore() && in.Rd == r)
}

func touchesMem(in *target.Inst) bool {
	return in.Op.IsLoad() || in.Op.IsStore() || in.MemSrc || in.MemDst
}

func writesMem(in *target.Inst) bool { return in.Op.IsStore() || in.MemDst }

func readsFlags(in *target.Inst) bool { return in.Op == target.Bcc || in.Op == target.FBcc }

// The legality check must bite: a use hoisted above the load that
// produces its operand is a reversed RAW dependence.
func TestCheckLegalRejectsSwappedLoadUse(t *testing.T) {
	block := []target.Inst{
		inst(target.Lw, 2, 29, target.NoReg),
		inst(target.Add, 3, 2, 2),
	}
	if err := legalityErr(block, block); err != nil {
		t.Fatalf("identity schedule rejected: %v", err)
	}
	swapped := []target.Inst{block[1], block[0]}
	err := legalityErr(block, swapped)
	if err == nil || !strings.HasPrefix(err.Error(), "RAW dependence 0 ") {
		t.Fatalf("swapped load/use: got %v, want a reversed RAW dependence", err)
	}
}

func TestScheduleHidesLoadUse(t *testing.T) {
	m := mips()
	// load r2; use r2 immediately; independent add r5 — the scheduler
	// should move the independent add between them.
	block := []target.Inst{
		inst(target.Lw, 2, 29, target.NoReg),
		inst(target.Add, 3, 2, 2),
		inst(target.AddI, 5, 6, target.NoReg),
	}
	out := schedule(block, m)
	checkLegal(t, block, out)
	// The independent addi should no longer be last.
	if out[2].Op == target.AddI && out[2].Rd == 5 {
		t.Errorf("scheduler failed to hide load-use latency: %v", out)
	}
}

func TestScheduleKeepsDependences(t *testing.T) {
	m := mips()
	block := []target.Inst{
		inst(target.AddI, 2, 0, target.NoReg), // r2 = imm
		inst(target.Add, 3, 2, 2),             // needs r2
		inst(target.Add, 4, 3, 3),             // needs r3
	}
	out := schedule(block, m)
	pos := map[target.Reg]int{}
	for i, in := range out {
		if in.Rd != target.NoReg {
			pos[in.Rd] = i
		}
	}
	if !(pos[2] < pos[3] && pos[3] < pos[4]) {
		t.Errorf("dependences violated: %v", out)
	}
}

func TestScheduleRespectsStores(t *testing.T) {
	m := mips()
	block := []target.Inst{
		inst(target.Sw, 2, 29, target.NoReg), // store
		inst(target.Lw, 3, 29, target.NoReg), // load after store: fixed order
	}
	out := schedule(block, m)
	if out[0].Op != target.Sw {
		t.Errorf("load moved above store: %v", out)
	}
}

// Everything from the first control transfer, syscall, halt or break
// on keeps its position: a store after a halt never runs, so it must
// not be hoisted above it.
func TestScheduleStopsAtFirstControl(t *testing.T) {
	none := target.NoReg
	blocks := [][]target.Inst{{
		inst(target.AddI, 2, 0, none),
		{Op: target.Beqz, Rd: none, Rs1: 2, Rs2: none, Target: 5},
		{Op: target.J, Rd: none, Rs1: none, Rs2: none, Target: 9},
	}}
	for _, stop := range []target.Op{target.Halt, target.Break} {
		blocks = append(blocks, []target.Inst{
			inst(target.Lw, 2, 29, none),
			inst(target.Sw, 3, 2, none),
			inst(stop, none, none, none),
		})
	}
	for _, block := range blocks {
		for _, m := range target.Machines() {
			out := schedule(block, m)
			if err := legalityErr(block, out); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
			for i := 1; i < len(block); i++ {
				if out[i] != block[i] {
					t.Errorf("%s: block ending in %v: tail reordered: %v", m.Name, block[len(block)-1].Op, out)
					break
				}
			}
		}
	}
}

func TestFillDelaySlotWithIndependent(t *testing.T) {
	m := mips()
	block := []target.Inst{
		inst(target.AddI, 5, 6, target.NoReg), // independent: can fill
		inst(target.AddI, 2, 0, target.NoReg),
		{Op: target.Bnez, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 3},
	}
	out := FillDelaySlot(append([]target.Inst(nil), block...), m, true)
	if len(out) != 3 {
		t.Fatalf("expected fill without nop, got %v", out)
	}
	last := out[len(out)-1]
	if last.Op != target.AddI || last.Rd != 5 {
		t.Errorf("slot not filled with the independent add: %v", out)
	}
}

func TestFillDelaySlotNop(t *testing.T) {
	m := mips()
	block := []target.Inst{
		inst(target.AddI, 2, 0, target.NoReg),
		{Op: target.Bnez, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 3},
	}
	out := FillDelaySlot(append([]target.Inst(nil), block...), m, true)
	// The only candidate produces the branch operand: a nop must appear.
	if out[len(out)-1].Op != target.Nop || out[len(out)-1].Cat != target.CatBnop {
		t.Errorf("expected bnop: %v", out)
	}
}

func TestFillDelaySlotInterior(t *testing.T) {
	m := mips()
	block := []target.Inst{
		{Op: target.Beqz, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 7},
		{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Target: 9},
	}
	out := FillDelaySlot(append([]target.Inst(nil), block...), m, true)
	// Both transfers need a slot: beqz, nop, j, nop.
	if len(out) != 4 || out[1].Op != target.Nop || out[3].Op != target.Nop {
		t.Errorf("interior slot handling wrong: %v", out)
	}
}

func TestNoDelaySlotMachine(t *testing.T) {
	ppc := target.PPCMachine()
	block := []target.Inst{
		{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Target: 9},
	}
	out := FillDelaySlot(append([]target.Inst(nil), block...), ppc, true)
	if len(out) != 1 {
		t.Errorf("ppc got a delay slot: %v", out)
	}
}

func TestCallSlotAvoidsReturnReg(t *testing.T) {
	m := mips()
	block := []target.Inst{
		inst(target.AddI, 31, 0, target.NoReg), // writes the link register
		{Op: target.Jal, Rd: 31, Rs1: target.NoReg, Rs2: target.NoReg, Target: 3, Imm: 2},
	}
	out := FillDelaySlot(append([]target.Inst(nil), block...), m, true)
	// The addi writes r31, which jal also writes: it must NOT fill the slot.
	if out[len(out)-1].Op != target.Nop {
		t.Errorf("slot filled with a conflicting write: %v", out)
	}
}

// A warmed Scheduler schedules a block without allocating, so the
// blocks of one translation share one set of scratch storage.
func TestSchedulerAllocFree(t *testing.T) {
	m := target.MIPSMachine()
	block := blockCase{seed: 8, n: 200, regs: 8, tail: "bcc"}.build()
	work := make([]target.Inst, len(block))
	var s Scheduler
	run := func() {
		copy(work, block)
		s.Block(work, m)
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("Block allocated %.1f times per 200-instruction block, want 0", n)
	}
}
