package target

// Machine describes one simulated target architecture: its register
// conventions (which physical registers carry the OmniVM register
// images, which are reserved for SFI state and translator scratch),
// its immediate range, and its pipeline cost model.
//
// Integer registers are numbered 0..31 in each architecture's own
// numbering; FP registers are numbered 32+i for architectural FP
// register i, so the two files never collide in dependence analysis.
type Machine struct {
	Name string
	Arch Arch

	// HasDelaySlot: every control transfer executes the following
	// instruction (MIPS, SPARC).
	HasDelaySlot bool

	// ZeroReg is a register hardwired to zero (NoReg on x86). Writes
	// to it are discarded, which is how the OmniVM r0 image works.
	ZeroReg Reg

	// OmniInt[i] is the physical register carrying OmniVM integer
	// register i, or NoReg when the image lives in the register-save
	// area (x86 keeps only 5 OmniVM registers in real registers).
	OmniInt [16]Reg
	// OmniFP[i] is the image of OmniVM FP register i.
	OmniFP [16]Reg

	// Registers the translator reserves (§3.2: "the runtime reserves
	// some registers for its own use"). SFIAddr is the dedicated
	// sandbox register; SFIMask/SFIBase/CodeMask/GP hold the segment
	// constants (NoReg on x86, which uses immediates); Scratch and
	// FScratch stage memory-resident values.
	SFIAddr  Reg
	SFIMask  Reg
	SFIBase  Reg
	CodeMask Reg
	GP       Reg
	Scratch  [2]Reg
	FScratch [2]Reg

	// MaxImm bounds the signed immediate field: v fits iff
	// -MaxImm <= v < MaxImm.
	MaxImm int32

	// Latency is the result latency of each operation in cycles. The
	// scheduler, the audit's cost bound and the pipeline simulator all
	// read this one table.
	Latency [NumOps]uint8

	// IssueWidth is the number of instructions the pipeline can issue
	// per cycle (1 for MIPS/SPARC, 2 for the 601 and the Pentium).
	IssueWidth int
	// BranchFolding: branches issue without consuming an issue slot
	// (the 601 folds branches out of the dispatch stream).
	BranchFolding bool
	// Pairing: Pentium U/V pairing rules apply (shifts U-only,
	// branches V-only, FP unpaired, AGI stalls).
	Pairing bool
}

// FitsImm reports whether v fits the architecture's immediate field.
func (m *Machine) FitsImm(v int32) bool { return v >= -m.MaxImm && v < m.MaxImm }

func fpRegs16() [16]Reg {
	var f [16]Reg
	for i := range f {
		f[i] = Reg(32 + i)
	}
	return f
}

// MIPSMachine models an R4400-class MIPS: single-issue, deep pipeline
// with a load-use interlock, architectural branch delay slots, 16-bit
// immediates. OmniVM registers map onto the o/s/t registers; r0 is the
// hardwired zero.
func MIPSMachine() *Machine {
	return &Machine{
		Name:         "mips",
		Arch:         MIPS,
		HasDelaySlot: true,
		ZeroReg:      0,
		OmniInt: [16]Reg{
			0,          // r0: zero
			2, 3, 4, 5, // r1-r4: v0, a0-a2
			6, 7, 8, 9, 10, // r5-r9: a3, t0-t3
			16, 17, 18, 19, // r10-r13: s0-s3 (callee-saved)
			29, // r14: sp
			31, // r15: ra
		},
		OmniFP:     fpRegs16(),
		SFIAddr:    12,
		SFIMask:    13,
		SFIBase:    20,
		CodeMask:   21,
		GP:         28,
		Scratch:    [2]Reg{24, 25},
		FScratch:   [2]Reg{48, 49},
		MaxImm:     32768,
		Latency:    latencies{Load: 2, Mul: 4, Div: 12, FAdd: 4, FMulS: 7, FMulD: 8, FDivS: 23, FDivD: 36}.table(),
		IssueWidth: 1,
	}
}

// SPARCMachine models a SuperSPARC-class machine: single-issue in our
// model, branch delay slots (with annulment), 13-bit immediates.
// OmniVM registers map onto %o and %l; the %g file holds the reserved
// state.
func SPARCMachine() *Machine {
	return &Machine{
		Name:         "sparc",
		Arch:         SPARC,
		HasDelaySlot: true,
		ZeroReg:      0,
		OmniInt: [16]Reg{
			0,            // r0: %g0
			8, 9, 10, 11, // r1-r4: %o0-%o3
			12, 13, 16, 17, 18, // r5-r9: %o4, %o5, %l0-%l2
			19, 20, 21, 22, // r10-r13: %l3-%l6 (callee-saved)
			14, // r14: %sp (%o6)
			15, // r15: %o7 (call linkage)
		},
		OmniFP:     fpRegs16(),
		SFIAddr:    1, // %g1
		SFIMask:    2,
		SFIBase:    3,
		CodeMask:   4,
		GP:         5,
		Scratch:    [2]Reg{6, 7},
		FScratch:   [2]Reg{48, 49},
		MaxImm:     4096,
		Latency:    latencies{Load: 2, Mul: 5, Div: 18, FAdd: 3, FMulS: 3, FMulD: 4, FDivS: 9, FDivD: 12}.table(),
		IssueWidth: 1,
	}
}

// PPCMachine models a PowerPC 601: dual-issue with branch folding, no
// delay slots, 16-bit immediates. r0 is treated as a pinned zero in
// our model (the translator never uses its base-register quirk).
func PPCMachine() *Machine {
	return &Machine{
		Name:    "ppc",
		Arch:    PPC,
		ZeroReg: 0,
		OmniInt: [16]Reg{
			0,          // r0: pinned zero in this model
			3, 4, 5, 6, // r1-r4: argument/return registers
			7, 8, 9, 10, 11, // r5-r9: caller-saved
			24, 25, 26, 27, // r10-r13: callee-saved
			1,  // r14: sp (r1 is the PowerPC stack pointer)
			13, // r15: return-address image
		},
		OmniFP:        fpRegs16(),
		SFIAddr:       14,
		SFIMask:       15,
		SFIBase:       16,
		CodeMask:      17,
		GP:            18,
		Scratch:       [2]Reg{19, 20},
		FScratch:      [2]Reg{48, 49},
		MaxImm:        32768,
		Latency:       latencies{Load: 2, Mul: 5, Div: 36, FAdd: 4, FMulS: 4, FMulD: 5, FDivS: 17, FDivD: 31}.table(),
		IssueWidth:    2,
		BranchFolding: true,
	}
}

// X86Machine models a Pentium: dual-issue U/V pairing with AGI stalls,
// two-operand instructions, 5 OmniVM registers in real registers and
// the rest memory-resident in the register-save area. Register
// numbering: eax=0 ecx=1 edx=2 ebx=3 esp=4 ebp=5 esi=6 edi=7.
func X86Machine() *Machine {
	return &Machine{
		Name:    "x86",
		Arch:    X86,
		ZeroReg: NoReg,
		OmniInt: [16]Reg{
			NoReg,      // r0: zero synthesized with immediates
			0, 1, 2, 3, // r1-r4: eax, ecx, edx, ebx
			NoReg, NoReg, NoReg, NoReg, NoReg, // r5-r9: memory-resident
			NoReg, NoReg, NoReg, NoReg, // r10-r13: memory-resident
			4,     // r14: esp
			NoReg, // r15: memory-resident return address
		},
		OmniFP: [16]Reg{
			32, 33, 34, 35, 36, 37, // f0-f5: FP stack modelled as flat regs
			NoReg, NoReg, NoReg, NoReg, NoReg, NoReg, NoReg, NoReg, NoReg, NoReg,
		},
		SFIAddr:    EBP, // dedicated sandbox register
		SFIMask:    NoReg,
		SFIBase:    NoReg,
		CodeMask:   NoReg,
		GP:         NoReg,
		Scratch:    [2]Reg{6, EDI}, // esi, edi
		FScratch:   [2]Reg{38, 39},
		MaxImm:     1 << 30, // full imm32; never the limiting factor
		Latency:    latencies{Load: 1, Mul: 10, Div: 25, FAdd: 3, FMulS: 3, FMulD: 3, FDivS: 19, FDivD: 39}.table(),
		IssueWidth: 2,
		Pairing:    true,
	}
}

// latencies lists a machine's result latencies by operation class;
// every operation not in a class takes one cycle.
type latencies struct {
	Load  uint8 // every load
	Mul   uint8
	Div   uint8 // divide and remainder, signed and unsigned
	FAdd  uint8 // FP add/subtract and every conversion
	FMulS uint8
	FMulD uint8
	FDivS uint8
	FDivD uint8
}

func (l latencies) table() [NumOps]uint8 {
	var t [NumOps]uint8
	for op := range t {
		t[op] = 1
	}
	for _, c := range []struct {
		lat uint8
		ops []Op
	}{
		{l.Load, []Op{Lb, Lbu, Lh, Lhu, Lw, Lf, Ld}},
		{l.Mul, []Op{Mul}},
		{l.Div, []Op{Div, DivU, Rem, RemU}},
		{l.FAdd, []Op{FaddS, FsubS, FaddD, FsubD, CvtWS, CvtWD, CvtSW, CvtDW, CvtSD, CvtDS}},
		{l.FMulS, []Op{FmulS}},
		{l.FMulD, []Op{FmulD}},
		{l.FDivS, []Op{FdivS}},
		{l.FDivD, []Op{FdivD}},
	} {
		for _, op := range c.ops {
			t[op] = c.lat
		}
	}
	return t
}

// Machines returns the four simulated targets in the paper's order.
func Machines() []*Machine {
	return []*Machine{MIPSMachine(), SPARCMachine(), PPCMachine(), X86Machine()}
}

// ByName returns the machine named "mips", "sparc", "ppc" or "x86",
// or nil.
func ByName(name string) *Machine {
	for _, m := range Machines() {
		if m.Name == name {
			return m
		}
	}
	return nil
}
