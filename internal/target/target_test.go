package target

import (
	"errors"
	"fmt"
	"testing"

	"omniware/internal/hostapi"
	"omniware/internal/seg"
)

func TestMachineDescriptors(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("want 4 machines, got %d", len(ms))
	}
	order := []string{"mips", "sparc", "ppc", "x86"}
	for i, m := range ms {
		if m.Name != order[i] {
			t.Errorf("machine %d: %q, want %q (paper order)", i, m.Name, order[i])
		}
		if ByName(m.Name) == nil {
			t.Errorf("ByName(%q) = nil", m.Name)
		}
		if m.IssueWidth < 1 {
			t.Errorf("%s: issue width %d", m.Name, m.IssueWidth)
		}
		for op := Nop; op < NumOps; op++ {
			if m.Latency[op] == 0 {
				t.Errorf("%s: %s has no latency", m.Name, op)
			}
		}
		// Every OmniVM register image must be a valid physical register
		// or explicitly memory-resident; images must not collide with
		// the reserved SFI/scratch registers.
		reserved := map[Reg]bool{}
		for _, r := range []Reg{m.SFIAddr, m.SFIMask, m.SFIBase, m.CodeMask, m.GP, m.Scratch[0], m.Scratch[1]} {
			if r != NoReg {
				reserved[r] = true
			}
		}
		seen := map[Reg]bool{}
		for i, r := range m.OmniInt {
			if r == NoReg {
				continue
			}
			if r < 0 || r >= 32 {
				t.Errorf("%s: OmniInt[%d] = %d out of range", m.Name, i, r)
			}
			if reserved[r] {
				t.Errorf("%s: OmniInt[%d] = %d collides with a reserved register", m.Name, i, r)
			}
			if seen[r] && r != m.ZeroReg {
				t.Errorf("%s: OmniInt[%d] = %d mapped twice", m.Name, i, r)
			}
			seen[r] = true
		}
		for i, r := range m.OmniFP {
			if r != NoReg && (r < 32 || r >= 64) {
				t.Errorf("%s: OmniFP[%d] = %d outside the FP numbering", m.Name, i, r)
			}
		}
	}
	if ByName("vax") != nil {
		t.Error("ByName accepted an unknown machine")
	}
	// Fresh descriptors per call: mutating one must not leak.
	a, b := MIPSMachine(), MIPSMachine()
	a.MaxImm = 1
	if b.MaxImm == 1 {
		t.Error("Machines share state")
	}
}

func TestOpPredicates(t *testing.T) {
	for op := Nop; op < NumOps; op++ {
		n := 0
		for _, b := range []bool{op.IsBranch(), op.IsJump(), op.IsLoad(), op.IsStore()} {
			if b {
				n++
			}
		}
		if n > 1 {
			t.Errorf("%s: in multiple opcode classes", op)
		}
		if op.String() == "" {
			t.Errorf("op %d: empty name", op)
		}
	}
	for _, op := range []Op{Bcc, Beq, Bgez} {
		if !op.IsBranch() {
			t.Errorf("%s: not a branch", op)
		}
	}
	for _, op := range []Op{J, Jal, Jr, Jalr} {
		if !op.IsJump() {
			t.Errorf("%s: not a jump", op)
		}
	}
}

func TestFitsImm(t *testing.T) {
	m := MIPSMachine()
	for _, c := range []struct {
		v  int32
		ok bool
	}{{0, true}, {32767, true}, {-32768, true}, {32768, false}, {-32769, false}} {
		if got := m.FitsImm(c.v); got != c.ok {
			t.Errorf("FitsImm(%d) = %v, want %v", c.v, got, c.ok)
		}
	}
}

func TestRegSaveLayout(t *testing.T) {
	// Int slots are 4-byte, FP slots 8-byte starting after all 16 int
	// slots; no overlap.
	if IntSlotOffset(15)+4 > FPSlotOffset(0) {
		t.Errorf("int slots overlap FP slots: %d vs %d", IntSlotOffset(15), FPSlotOffset(0))
	}
	if FPSlotOffset(1)-FPSlotOffset(0) != 8 {
		t.Errorf("FP slot stride %d", FPSlotOffset(1)-FPSlotOffset(0))
	}
}

// charge runs insts through a machine's pipeline model and returns the
// cycle count including the final partially-filled issue slot. It
// executes them — over one page of memory at 0 that every address
// they form lands in — and stops them with the budget.
func charge(m *Machine, insts []Inst) uint64 {
	var mem seg.Memory
	if _, err := mem.Map("data", 0, seg.PageSize, seg.Read|seg.Write); err != nil {
		panic(err)
	}
	env := &hostapi.Env{Layout: &hostapi.Layout{StackTop: 0x100}}
	s := New(m, &Program{Arch: m.Arch, Code: insts}, &mem, env)
	s.MaxInsts = uint64(len(insts))
	if _, err := s.Run(); !errors.Is(err, ErrBudget) {
		panic(fmt.Sprintf("charge: %v", err))
	}
	c := s.clock
	if s.slot > 0 {
		c++
	}
	return c
}

func TestPipelineLoadUseInterlock(t *testing.T) {
	m := MIPSMachine()
	dep := []Inst{
		{Op: Lw, Rd: 2, Rs1: 29, Rs2: NoReg},
		{Op: Add, Rd: 3, Rs1: 2, Rs2: 2}, // waits a cycle on the load
	}
	indep := []Inst{
		{Op: Lw, Rd: 2, Rs1: 29, Rs2: NoReg},
		{Op: Add, Rd: 3, Rs1: 4, Rs2: 4},
	}
	if charge(m, dep) <= charge(m, indep) {
		t.Errorf("load-use interlock not charged: dep %d, indep %d", charge(m, dep), charge(m, indep))
	}
}

func TestPipelinePentiumPairing(t *testing.T) {
	m := X86Machine()
	pairable := []Inst{
		{Op: Add, Rd: 0, Rs1: 0, Rs2: 1},
		{Op: Add, Rd: 2, Rs1: 2, Rs2: 3},
	}
	if c := charge(m, pairable); c != 1 {
		t.Errorf("independent ALU pair took %d cycles, want 1", c)
	}
	shifts := []Inst{
		{Op: SllI, Rd: 0, Rs1: 0, Rs2: NoReg, Imm: 1},
		{Op: SllI, Rd: 2, Rs1: 2, Rs2: NoReg, Imm: 1},
	}
	if c := charge(m, shifts); c < 2 {
		t.Errorf("two U-only shifts paired: %d cycles", c)
	}
}

func TestPipelinePentiumAGIStall(t *testing.T) {
	m := X86Machine()
	agi := []Inst{
		{Op: Add, Rd: 0, Rs1: 0, Rs2: 1},
		{Op: Lw, Rd: 2, Rs1: 0, Rs2: NoReg}, // base computed the cycle before
	}
	noAgi := []Inst{
		{Op: Add, Rd: 0, Rs1: 0, Rs2: 1},
		{Op: Lw, Rd: 2, Rs1: 3, Rs2: NoReg},
	}
	if charge(m, agi) <= charge(m, noAgi) {
		t.Errorf("AGI stall not charged: agi %d, clean %d", charge(m, agi), charge(m, noAgi))
	}
}

func TestPipelinePPCDualIssueAndFolding(t *testing.T) {
	m := PPCMachine()
	two := []Inst{
		{Op: Add, Rd: 3, Rs1: 4, Rs2: 5},
		{Op: Add, Rd: 6, Rs1: 7, Rs2: 8},
	}
	if c := charge(m, two); c != 1 {
		t.Errorf("dual issue: %d cycles for 2 independent adds, want 1", c)
	}
	// A folded branch consumes no issue slot: add+add+branch still one
	// cycle.
	withBranch := append(append([]Inst{}, two...), Inst{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 0})
	if c := charge(m, withBranch); c != 1 {
		t.Errorf("branch folding: %d cycles, want 1", c)
	}
}

func TestDelaySlotControlInstructionFaults(t *testing.T) {
	// A control transfer in a delay slot is illegal on the delay-slot
	// machines; the executor must reject it rather than guess.
	m := MIPSMachine()
	prog := &Program{
		Arch: m.Arch,
		Code: []Inst{
			{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 2},
			{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 0}, // in the slot
			{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg},
		},
	}
	env := &hostapi.Env{Layout: &hostapi.Layout{StackTop: 0x1000}}
	s := New(m, prog, nil, env)
	s.MaxInsts = 100
	if _, err := s.Run(); err == nil {
		t.Error("control transfer in a delay slot executed")
	}
}
