// Package sched implements local (basic-block) list scheduling over
// target instructions, plus branch delay-slot filling for the
// delay-slot architectures. This is the translator optimization §4.2
// evaluates: it hides pipeline interlocks, and in SFI code it hides
// sandboxing instructions inside interlock cycles, which is why
// scheduling helps SFI code more than unprotected code.
package sched

import "omniware/internal/target"

// Block schedules the instructions of one basic block in place and
// returns the new ordering. The final instruction, if it is a control
// transfer, keeps its position. Memory operations keep their relative
// order with respect to stores; register dependences are honoured
// exactly.
func Block(insts []target.Inst, m *target.Machine) []target.Inst {
	n := len(insts)
	if n < 2 {
		return insts
	}
	// Schedule only the straight-line prefix: everything from the first
	// control transfer on keeps its order (a block may end with a
	// conditional branch followed by an unconditional jump).
	k := n
	for i := 0; i < n; i++ {
		op := insts[i].Op
		if op.IsBranch() || op.IsJump() || op == target.Syscall {
			k = i
			break
		}
	}
	body := insts[:k]
	tail := insts[k:]
	if len(body) < 2 {
		return insts
	}
	// The first control transfer may depend on body values (branch
	// operands); keep producers of its operands ordered naturally via
	// the dependence DAG — the tail is appended unchanged, so any body
	// instruction is still before it.
	term := tail

	deps := buildDeps(body, m)

	// Longest-path-to-exit priority.
	prio := make([]int, len(body))
	for i := len(body) - 1; i >= 0; i-- {
		lat := latOf(&body[i], m)
		p := lat
		for _, s := range deps.succs[i] {
			if prio[s]+lat > p {
				p = prio[s] + lat
			}
		}
		prio[i] = p
	}

	// Cycle-driven list scheduling: among the data-ready instructions,
	// prefer one whose operands are available this cycle (hiding
	// latencies), breaking ties by critical-path priority.
	indeg := make([]int, len(body))
	preds := make([][]int, len(body))
	for i := range body {
		for _, s := range deps.succs[i] {
			indeg[s]++
			preds[s] = append(preds[s], i)
		}
	}
	finish := make([]int, len(body)) // cycle the result becomes available
	scheduled := make([]target.Inst, 0, len(insts))
	done := make([]bool, len(body))
	clock := 0
	for len(scheduled) < len(body) {
		best, bestEst := -1, 0
		for i := range body {
			if done[i] || indeg[i] != 0 {
				continue
			}
			est := 0
			for _, p := range preds[i] {
				if finish[p] > est {
					est = finish[p]
				}
			}
			if est < clock {
				est = clock
			}
			better := best < 0 ||
				est < bestEst ||
				(est == bestEst && prio[i] > prio[best])
			if better {
				best, bestEst = i, est
			}
		}
		if best < 0 {
			// Cycle (cannot happen with a DAG); bail out conservatively.
			return insts
		}
		done[best] = true
		finish[best] = bestEst + latOf(&body[best], m)
		clock = bestEst + 1
		scheduled = append(scheduled, body[best])
		for _, s := range deps.succs[best] {
			indeg[s]--
		}
	}
	scheduled = append(scheduled, term...)
	return scheduled
}

// FillDelaySlot arranges delay slots on delay-slot machines. The final
// control transfer of the block gets the last independent instruction
// moved into its slot (or a nop); interior transfers (a conditional
// branch followed by its else-jump) always get an explicit nop.
func FillDelaySlot(insts []target.Inst, m *target.Machine, tryFill bool) []target.Inst {
	if !m.HasDelaySlot || len(insts) == 0 {
		return insts
	}
	isCtl := func(op target.Op) bool {
		return op.IsBranch() || op == target.J || op == target.Jal || op == target.Jr || op == target.Jalr
	}
	nopFor := func(src int32) target.Inst {
		return target.Inst{Op: target.Nop, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Cat: target.CatBnop, Src: src}
	}

	// Step 1: the final transfer, if any, gets a filled slot or a nop.
	finalHandled := false
	last := len(insts) - 1
	if isCtl(insts[last].Op) {
		t := insts[last]
		filled := false
		if tryFill {
			for i := last - 1; i >= 0; i-- {
				c := insts[i]
				if isCtl(c.Op) || c.Op == target.Syscall {
					break
				}
				if writesReg(&c, t.Rs1) || writesReg(&c, t.Rs2) {
					continue
				}
				if (t.Op == target.Jal || t.Op == target.Jalr) && t.Rd != target.NoReg {
					if writesReg(&c, t.Rd) || c.Rs1 == t.Rd || c.Rs2 == t.Rd ||
						(c.Op.IsStore() && c.Rd == t.Rd) {
						continue
					}
				}
				if (t.Op == target.Bcc || t.Op == target.FBcc) && setsFlags(&c) {
					continue
				}
				if !canDelay(insts[i+1:last], &c) {
					continue
				}
				out := make([]target.Inst, 0, len(insts))
				out = append(out, insts[:i]...)
				out = append(out, insts[i+1:last]...)
				out = append(out, t, c)
				insts = out
				filled = true
				break
			}
		}
		if !filled {
			insts = append(insts, nopFor(t.Src))
		}
		finalHandled = true
		last = len(insts) - 2 // position of the final transfer
	}

	// Step 2: every other transfer gets a nop slot.
	out := make([]target.Inst, 0, len(insts)+2)
	for i := 0; i < len(insts); i++ {
		out = append(out, insts[i])
		if isCtl(insts[i].Op) && !(finalHandled && i == last) {
			out = append(out, nopFor(insts[i].Src))
		}
	}
	return out
}

func canDelay(between []target.Inst, c *target.Inst) bool {
	for i := range between {
		b := &between[i]
		// b must not read or overwrite c's result.
		if c.Rd != target.NoReg && !c.Op.IsStore() {
			if b.Rs1 == c.Rd || b.Rs2 == c.Rd || (b.Op.IsStore() && b.Rd == c.Rd) {
				return false
			}
			if b.Rd == c.Rd {
				return false
			}
		}
		// c must not read anything b writes.
		if b.Rd != target.NoReg && !b.Op.IsStore() {
			if c.Rs1 == b.Rd || c.Rs2 == b.Rd || (c.Op.IsStore() && c.Rd == b.Rd) {
				return false
			}
		}
		// Memory ordering: don't move a memory op past another store.
		cMem := c.Op.IsLoad() || c.Op.IsStore() || c.MemSrc || c.MemDst
		if cMem && (b.Op.IsStore() || b.MemDst) {
			return false
		}
		if (c.Op.IsStore() || c.MemDst) && (b.Op.IsLoad() || b.MemSrc || b.MemDst) {
			return false
		}
	}
	return true
}

func writesReg(in *target.Inst, r target.Reg) bool {
	if r == target.NoReg {
		return false
	}
	return in.Rd == r && !in.Op.IsStore()
}

func setsFlags(in *target.Inst) bool {
	switch in.Op {
	case target.Cmp, target.CmpI, target.CmpUI, target.Fcmp:
		return true
	}
	return false
}

func latOf(in *target.Inst, m *target.Machine) int {
	return int(m.Latency[in.Op])
}

type depGraph struct {
	succs [][]int
}

// buildDeps constructs the dependence DAG of a straight-line body.
func buildDeps(body []target.Inst, m *target.Machine) *depGraph {
	g := &depGraph{succs: make([][]int, len(body))}
	lastWrite := map[target.Reg]int{}
	readersSince := map[target.Reg][]int{}
	lastStore := -1
	lastMems := []int{}
	lastFlagSet := -1
	flagReaders := []int{}
	barrier := -1

	edge := func(from, to int) {
		if from < 0 || from == to {
			return
		}
		g.succs[from] = append(g.succs[from], to)
	}

	for i := range body {
		in := &body[i]
		var reads []target.Reg
		if in.Rs1 != target.NoReg {
			reads = append(reads, in.Rs1)
		}
		if in.Rs2 != target.NoReg {
			reads = append(reads, in.Rs2)
		}
		var writes target.Reg = target.NoReg
		if in.Op.IsStore() {
			reads = append(reads, in.Rd)
		} else if in.Rd != target.NoReg {
			writes = in.Rd
		}
		// RAW
		for _, r := range reads {
			if w, ok := lastWrite[r]; ok {
				edge(w, i)
			}
		}
		// WAR and WAW
		if writes != target.NoReg {
			for _, rd := range readersSince[writes] {
				edge(rd, i)
			}
			if w, ok := lastWrite[writes]; ok {
				edge(w, i)
			}
			lastWrite[writes] = i
			readersSince[writes] = nil
		}
		for _, r := range reads {
			readersSince[r] = append(readersSince[r], i)
		}
		// Memory: stores order against all prior memory ops; loads order
		// against prior stores. MemDst forms both read and write memory.
		isMem := in.Op.IsLoad() || in.Op.IsStore() || in.MemSrc || in.MemDst
		if in.Op.IsStore() || in.MemDst {
			for _, mi := range lastMems {
				edge(mi, i)
			}
			edge(lastStore, i)
			lastStore = i
			lastMems = lastMems[:0]
		} else if isMem {
			edge(lastStore, i)
			lastMems = append(lastMems, i)
		}
		// Syscalls are full barriers: they read and write the OmniVM
		// register state (possibly in memory) and perform I/O.
		if in.Op == target.Syscall {
			for j := 0; j < i; j++ {
				edge(j, i)
			}
			barrier = i
		} else if barrier >= 0 {
			edge(barrier, i)
		}
		// Flags.
		if setsFlags(in) {
			for _, r := range flagReaders {
				edge(r, i)
			}
			edge(lastFlagSet, i)
			lastFlagSet = i
			flagReaders = flagReaders[:0]
		}
		if in.Op == target.Bcc || in.Op == target.FBcc {
			edge(lastFlagSet, i)
			flagReaders = append(flagReaders, i)
		}
	}
	return g
}
