// Package sched implements local (basic-block) list scheduling over
// target instructions, plus branch delay-slot filling for the
// delay-slot architectures. This is the translator optimization §4.2
// evaluates: it hides pipeline interlocks, and in SFI code it hides
// sandboxing instructions inside interlock cycles, which is why
// scheduling helps SFI code more than unprotected code.
//
// Block is a cycle-driven list scheduler in linear passes over a
// block's straight-line body:
//   - Dependences come from fixed tables: per register the last writer
//     and the readers since that write, the last store and the memory
//     operations since it, and the last compare. Each edge found at
//     instruction i ends at i, so the predecessor lists come out in
//     CSR order; the successor lists are their transpose.
//   - An instruction's priority is the longest latency path from it to
//     the end of the body, computed backwards over the successors.
//   - A ready list holds the instructions whose predecessors have all
//     issued, each with its ready cycle: the largest finish cycle among
//     its predecessors, fixed when the last of them issues. Each step
//     issues the ready instruction that can start earliest, then the
//     one with the highest priority, then the one with the lowest index.
package sched

import "omniware/internal/target"

// Scheduler holds Block's scratch storage, reused from one block to
// the next, so that scheduling allocates only when a block is larger
// than every block before it. The zero value is ready to use. A
// Scheduler must not be used by two goroutines at once.
type Scheduler struct {
	body []target.Inst // the unscheduled body, copied out of the caller's slice

	// The dependence DAG in CSR form: the predecessors of i are
	// pred[predAt[i]:predAt[i+1]], its successors
	// succ[succAt[i]:succAt[i+1]].
	predAt, pred []int32
	succAt, succ []int32

	prio  []int32 // longest latency path to the end of the body
	ready []int32 // largest finish cycle among the issued predecessors
	waits []int32 // predecessors not yet issued
	list  []int32 // the ready list, in no particular order

	// Dependence tables, indexed by register. Both hold 1 + an
	// instruction or reader index, 0 for none, so clearing resets them.
	lastWrite [numRegs]int32
	readHead  [numRegs]int32 // newest reader since the last write
	readers   []reader
	mems      []int32 // memory operations since the last store
}

// numRegs covers every register number a target.Reg can hold;
// machines use 0..31 for integer registers and 32..63 for FP.
const numRegs = 128

// reader is one node of a register's list of readers since its last
// write.
type reader struct {
	inst int32
	next int32 // 1 + the next (older) node, 0 at the end
}

// Block schedules the instructions of one basic block in place. It
// reorders the straight-line body before the first control transfer,
// syscall, halt or break within the body's own slots; everything from
// that instruction on keeps its position, so a block ending in a
// conditional branch and its else-jump keeps both, and nothing moves
// past a halt. Register dependences are honoured exactly,
// memory operations keep their order with respect to stores, and
// compares keep their order.
func (s *Scheduler) Block(insts []target.Inst, m *target.Machine) {
	k := len(insts)
	for i := range insts {
		op := insts[i].Op
		if op.IsBranch() || op.IsJump() || op == target.Syscall || op == target.Halt || op == target.Break {
			k = i
			break
		}
	}
	if k < 2 {
		return
	}
	s.body = append(s.body[:0], insts[:k]...)
	s.depEdges()
	s.prioritize(m)
	s.issue(insts[:k], m)
}

// depEdges fills the predecessor and successor arrays of s.body.
// The only flag readers, Bcc and FBcc, end the body, so compares
// order only against each other.
func (s *Scheduler) depEdges() {
	n := len(s.body)
	clear(s.lastWrite[:])
	clear(s.readHead[:])
	s.readers = s.readers[:0]
	s.mems = s.mems[:0]
	s.predAt = resize(s.predAt, n+1)
	s.pred = s.pred[:0]
	lastStore, lastFlags := int32(-1), int32(-1)
	edge := func(from int32) {
		if from >= 0 {
			s.pred = append(s.pred, from)
		}
	}
	for i := range s.body {
		in := &s.body[i]
		s.predAt[i] = int32(len(s.pred))
		reads := [3]target.Reg{in.Rs1, in.Rs2, target.NoReg}
		writes := in.Rd
		if in.Op.IsStore() {
			reads[2], writes = in.Rd, target.NoReg
		}
		for _, r := range reads {
			if r != target.NoReg {
				edge(s.lastWrite[r] - 1) // RAW
			}
		}
		if writes != target.NoReg {
			for at := s.readHead[writes]; at != 0; at = s.readers[at-1].next {
				edge(s.readers[at-1].inst) // WAR
			}
			edge(s.lastWrite[writes] - 1) // WAW
			s.lastWrite[writes] = int32(i) + 1
			s.readHead[writes] = 0
		}
		for _, r := range reads {
			if r != target.NoReg {
				s.readers = append(s.readers, reader{inst: int32(i), next: s.readHead[r]})
				s.readHead[r] = int32(len(s.readers))
			}
		}
		// Stores (and x86 read-modify-write forms) order against every
		// memory operation since the last store; loads against that
		// store.
		switch {
		case in.Op.IsStore() || in.MemDst:
			for _, mi := range s.mems {
				edge(mi)
			}
			edge(lastStore)
			lastStore = int32(i)
			s.mems = s.mems[:0]
		case in.Op.IsLoad() || in.MemSrc:
			edge(lastStore)
			s.mems = append(s.mems, int32(i))
		}
		if setsFlags(in) {
			edge(lastFlags)
			lastFlags = int32(i)
		}
	}
	s.predAt[n] = int32(len(s.pred))

	// Transpose: count each instruction's successors, turn the counts
	// into end offsets, then place every edge, walking each end back
	// to its start.
	s.succAt = resize(s.succAt, n+1)
	clear(s.succAt)
	for _, p := range s.pred {
		s.succAt[p]++
	}
	for i := 1; i < n; i++ {
		s.succAt[i] += s.succAt[i-1]
	}
	s.succAt[n] = int32(len(s.pred))
	s.succ = resize(s.succ, len(s.pred))
	for i := n - 1; i >= 0; i-- {
		for _, p := range s.pred[s.predAt[i]:s.predAt[i+1]] {
			s.succAt[p]--
			s.succ[s.succAt[p]] = int32(i)
		}
	}
}

// prioritize sets each instruction's priority: its own latency plus
// the largest priority among its successors.
func (s *Scheduler) prioritize(m *target.Machine) {
	n := len(s.body)
	s.prio = resize(s.prio, n)
	for i := n - 1; i >= 0; i-- {
		p := int32(0)
		for _, c := range s.succ[s.succAt[i]:s.succAt[i+1]] {
			p = max(p, s.prio[c])
		}
		s.prio[i] = p + int32(m.Latency[s.body[i].Op])
	}
}

// issue writes the schedule into out: at each step the ready
// instruction with the lowest start cycle max(ready, clock), then the
// highest priority, then the lowest index.
func (s *Scheduler) issue(out []target.Inst, m *target.Machine) {
	n := len(s.body)
	s.ready = resize(s.ready, n)
	s.waits = resize(s.waits, n)
	s.list = s.list[:0]
	for i := range n {
		s.ready[i] = 0
		s.waits[i] = s.predAt[i+1] - s.predAt[i]
		if s.waits[i] == 0 {
			s.list = append(s.list, int32(i))
		}
	}
	clock := int32(0)
	for step := range out {
		at := 0
		best := s.list[0]
		start := max(s.ready[best], clock)
		for j := 1; j < len(s.list); j++ {
			c := s.list[j]
			est := max(s.ready[c], clock)
			if est < start || est == start &&
				(s.prio[c] > s.prio[best] || s.prio[c] == s.prio[best] && c < best) {
				at, best, start = j, c, est
			}
		}
		last := len(s.list) - 1
		s.list[at] = s.list[last]
		s.list = s.list[:last]

		out[step] = s.body[best]
		finish := start + int32(m.Latency[s.body[best].Op])
		clock = start + 1
		for _, c := range s.succ[s.succAt[best]:s.succAt[best+1]] {
			s.ready[c] = max(s.ready[c], finish)
			if s.waits[c]--; s.waits[c] == 0 {
				s.list = append(s.list, c)
			}
		}
	}
}

// resize returns a slice of length n, reusing buf's storage when it is
// large enough. The contents are unspecified.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, 2*n)
	}
	return buf[:n]
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
