package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"omniware/internal/target"
)

// key renders an instruction compactly for golden comparison: opcode
// plus destination (or branch shape), enough to pin the ordering
// without freezing every operand.
func key(in *target.Inst) string {
	switch {
	case in.Op == target.Nop:
		return "nop"
	case in.Op.IsBranch() || in.Op.IsJump():
		return in.Op.String()
	case in.Op.IsStore():
		return fmt.Sprintf("%s[r%d]", in.Op, in.Rd)
	default:
		return fmt.Sprintf("%s>r%d", in.Op, in.Rd)
	}
}

func keys(insts []target.Inst) string {
	parts := make([]string, len(insts))
	for i := range insts {
		parts[i] = key(&insts[i])
	}
	return strings.Join(parts, " ")
}

// Golden delay-slot orderings on the two delay-slot machines. The
// filler is deterministic, so the exact output sequence is the
// contract: which instruction lands in the slot, where nops are forced,
// and that interior transfers always get an explicit nop.
func TestDelaySlotGoldenOrderings(t *testing.T) {
	cases := []struct {
		name   string
		block  []target.Inst
		golden string
	}{
		{
			// The independent add moves into the slot.
			name: "independent-fills-slot",
			block: []target.Inst{
				inst(target.AddI, 5, 6, target.NoReg),
				inst(target.AddI, 2, 0, target.NoReg),
				{Op: target.Bnez, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 3},
			},
			golden: "addi>r2 bnez addi>r5",
		},
		{
			// The only candidate produces the branch operand: forced nop.
			name: "operand-producer-forces-nop",
			block: []target.Inst{
				inst(target.AddI, 2, 0, target.NoReg),
				{Op: target.Bnez, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 3},
			},
			golden: "addi>r2 bnez nop",
		},
		{
			// A store is a legal slot filler when nothing between it and
			// the branch conflicts.
			name: "store-fills-slot",
			block: []target.Inst{
				inst(target.AddI, 2, 0, target.NoReg),
				inst(target.Sw, 3, 29, target.NoReg),
				{Op: target.Bnez, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 3},
			},
			golden: "addi>r2 bnez sw[r3]",
		},
		{
			// Interior transfer (conditional branch then else-jump): both
			// get slots, and the fill search never moves an instruction
			// across the interior transfer, so both slots hold nops.
			name: "interior-transfers-get-nops",
			block: []target.Inst{
				inst(target.AddI, 5, 6, target.NoReg),
				{Op: target.Beqz, Rd: target.NoReg, Rs1: 2, Rs2: target.NoReg, Target: 7},
				{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Target: 9},
			},
			golden: "addi>r5 beqz nop j nop",
		},
		{
			// The candidate writes the link register the call also
			// writes: it may not move into the slot.
			name: "call-link-conflict-forces-nop",
			block: []target.Inst{
				inst(target.AddI, 31, 0, target.NoReg),
				{Op: target.Jal, Rd: 31, Rs1: target.NoReg, Rs2: target.NoReg, Target: 3, Imm: 2},
			},
			golden: "addi>r31 jal nop",
		},
		{
			// A skipped conflicting candidate does not stop the search:
			// the earlier independent instruction still fills the slot.
			name: "search-skips-conflicting-candidate",
			block: []target.Inst{
				inst(target.AddI, 5, 6, target.NoReg),
				inst(target.AddI, 2, 0, target.NoReg),
				inst(target.Add, 3, 2, 2),
				{Op: target.Bnez, Rd: target.NoReg, Rs1: 3, Rs2: target.NoReg, Target: 3},
			},
			golden: "addi>r2 add>r3 bnez addi>r5",
		},
	}
	for _, m := range []*target.Machine{target.MIPSMachine(), target.SPARCMachine()} {
		for _, c := range cases {
			t.Run(m.Name+"/"+c.name, func(t *testing.T) {
				out := FillDelaySlot(append([]target.Inst(nil), c.block...), m, true)
				if got := keys(out); got != c.golden {
					t.Errorf("ordering:\n  got:  %s\n  want: %s", got, c.golden)
				}
			})
		}
	}
}

// blockCycles charges a straight-line block on a single-issue in-order
// pipeline under the machine's latency table: each instruction stalls
// until its operands are ready, then issues in one cycle. This is the
// cost model the scheduler optimizes against.
func blockCycles(insts []target.Inst, m *target.Machine) int {
	avail := map[target.Reg]int{}
	clock := 0
	for i := range insts {
		in := &insts[i]
		ready := clock
		use := func(r target.Reg) {
			if r != target.NoReg && avail[r] > ready {
				ready = avail[r]
			}
		}
		use(in.Rs1)
		use(in.Rs2)
		if in.Op.IsStore() {
			use(in.Rd)
		}
		clock = ready + 1
		if in.Rd != target.NoReg && !in.Op.IsStore() {
			avail[in.Rd] = ready + int(m.Latency[in.Op])
		}
	}
	return clock
}

// Scheduling must never make a block slower under the cost model it
// optimizes for, and on the latency-hiding cases it must strictly win.
func TestScheduleCycleNonRegression(t *testing.T) {
	blocks := []struct {
		name       string
		insts      []target.Inst
		strictlyOn []string // machines where an improvement is required
	}{
		{
			// Two load-use pairs that interleave perfectly.
			name: "load-use-pairs",
			insts: []target.Inst{
				inst(target.Lw, 2, 29, target.NoReg),
				inst(target.Add, 3, 2, 2),
				inst(target.Lw, 4, 29, target.NoReg),
				inst(target.Add, 5, 4, 4),
			},
			strictlyOn: []string{"mips", "sparc", "ppc"},
		},
		{
			// A long-latency multiply whose consumer can sink below
			// independent work.
			name: "multiply-latency",
			insts: []target.Inst{
				inst(target.Mul, 2, 6, 7),
				inst(target.Add, 3, 2, 2),
				inst(target.AddI, 8, 9, target.NoReg),
				inst(target.AddI, 10, 11, target.NoReg),
				inst(target.AddI, 12, 11, target.NoReg),
			},
			strictlyOn: []string{"mips", "sparc", "ppc", "x86"},
		},
		{
			// FP pipeline: double multiply feeding an add, with integer
			// work available to hide the latency.
			name: "fp-chain",
			insts: []target.Inst{
				inst(target.FmulD, 50, 48, 49),
				inst(target.FaddD, 51, 50, 48),
				inst(target.AddI, 8, 9, target.NoReg),
				inst(target.AddI, 10, 9, target.NoReg),
			},
			strictlyOn: []string{"mips", "sparc", "ppc", "x86"},
		},
		{
			// A dependence chain with no slack: scheduling can do
			// nothing, and must not regress.
			name: "serial-chain",
			insts: []target.Inst{
				inst(target.AddI, 2, 0, target.NoReg),
				inst(target.Add, 3, 2, 2),
				inst(target.Add, 4, 3, 3),
				inst(target.Add, 5, 4, 4),
			},
		},
		{
			// Memory ordering constraints limit but do not prevent
			// reordering.
			name: "store-load-mix",
			insts: []target.Inst{
				inst(target.Lw, 2, 29, target.NoReg),
				inst(target.Add, 3, 2, 2),
				inst(target.Sw, 3, 29, target.NoReg),
				inst(target.AddI, 8, 9, target.NoReg),
			},
			strictlyOn: []string{"mips", "sparc", "ppc"},
		},
	}
	for _, m := range target.Machines() {
		for _, b := range blocks {
			t.Run(m.Name+"/"+b.name, func(t *testing.T) {
				before := blockCycles(b.insts, m)
				out := schedule(b.insts, m)
				checkLegal(t, b.insts, out)
				after := blockCycles(out, m)
				if after > before {
					t.Errorf("scheduling regressed: %d -> %d cycles\n  in:  %s\n  out: %s",
						before, after, keys(b.insts), keys(out))
				}
				for _, name := range b.strictlyOn {
					if name == m.Name && after >= before {
						t.Errorf("expected a strict improvement, got %d -> %d cycles\n  out: %s",
							before, after, keys(out))
					}
				}
			})
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/blocks.golden from the current scheduler")

const blocksGolden = "testdata/blocks.golden"

// blockGen draws random straight-line bodies over a small register
// pool, so dependences are dense, from every instruction shape the
// translators hand the scheduler: register and immediate ALU work,
// long-latency multiply and divide, integer and FP loads and stores
// (base+offset and indexed), FP arithmetic with each latency class,
// x86's register-memory MemSrc and read-modify-write MemDst forms,
// compares, and nops.
type blockGen struct {
	r    *rand.Rand
	regs int // integer registers drawn from 1..regs; FP from 32..32+regs-1
}

func (g *blockGen) ireg() target.Reg { return target.Reg(1 + g.r.Intn(g.regs)) }
func (g *blockGen) freg() target.Reg { return target.Reg(32 + g.r.Intn(g.regs)) }

func (g *blockGen) inst() target.Inst {
	no := target.NoReg
	in := target.Inst{Rd: no, Rs1: no, Rs2: no}
	switch k := g.r.Intn(100); {
	case k < 18:
		in.Op = []target.Op{target.Add, target.Sub, target.Xor, target.Slt}[g.r.Intn(4)]
		in.Rd, in.Rs1, in.Rs2 = g.ireg(), g.ireg(), g.ireg()
	case k < 28:
		in.Op = []target.Op{target.AddI, target.SllI, target.Mov}[g.r.Intn(3)]
		in.Rd, in.Rs1, in.Imm = g.ireg(), g.ireg(), int32(g.r.Intn(64))
	case k < 32:
		in.Op, in.Rd, in.Imm = target.MovI, g.ireg(), int32(g.r.Intn(1<<20))
	case k < 36:
		in.Op = []target.Op{target.Mul, target.Div, target.RemU}[g.r.Intn(3)]
		in.Rd, in.Rs1, in.Rs2 = g.ireg(), g.ireg(), g.ireg()
	case k < 48:
		in.Op = []target.Op{target.Lw, target.Lbu, target.Lh}[g.r.Intn(3)]
		in.Rd, in.Rs1, in.Imm = g.ireg(), g.ireg(), int32(4*g.r.Intn(16))
		if g.r.Intn(4) == 0 {
			in.Rs2, in.Indexed, in.Imm = g.ireg(), true, 0
		}
	case k < 58:
		in.Op = []target.Op{target.Sw, target.Sb}[g.r.Intn(2)]
		in.Rd, in.Rs1, in.Imm = g.ireg(), g.ireg(), int32(4*g.r.Intn(16))
	case k < 62:
		in.Op = []target.Op{target.Ld, target.Lf}[g.r.Intn(2)]
		in.Rd, in.Rs1 = g.freg(), g.ireg()
	case k < 65:
		in.Op, in.Rd, in.Rs1 = target.Sd, g.freg(), g.ireg()
	case k < 75:
		in.Op = []target.Op{target.FaddD, target.FmulD, target.FdivD, target.FmulS, target.FdivS, target.FsubS}[g.r.Intn(6)]
		in.Rd, in.Rs1, in.Rs2 = g.freg(), g.freg(), g.freg()
	case k < 78:
		in.Op = []target.Op{target.CvtWD, target.CvtDS, target.FnegD}[g.r.Intn(3)]
		in.Rd, in.Rs1 = g.freg(), g.freg()
	case k < 83:
		// x86 load-op: rd = rd op mem[imm].
		in.Op, in.MemSrc = []target.Op{target.Add, target.Sub, target.And}[g.r.Intn(3)], true
		in.Rd = g.ireg()
		in.Rs1, in.Imm = in.Rd, int32(4*g.r.Intn(16))
	case k < 88:
		// x86 read-modify-write of a memory slot, register or immediate
		// operand.
		in.Op, in.MemDst, in.Imm = []target.Op{target.Add, target.Or}[g.r.Intn(2)], true, int32(4*g.r.Intn(16))
		if g.r.Intn(2) == 0 {
			in.Rs1 = g.ireg()
		} else {
			in.Target = int32(g.r.Intn(100))
		}
	case k < 95:
		in.Op = []target.Op{target.Cmp, target.CmpI, target.CmpUI}[g.r.Intn(3)]
		in.Rs1 = g.ireg()
		if in.Op == target.Cmp {
			in.Rs2 = g.ireg()
		}
	case k < 97:
		in.Op, in.Rs1, in.Rs2 = target.Fcmp, g.freg(), g.freg()
	default:
		in.Op = target.Nop
	}
	return in
}

// blockCase is one seeded body plus the control tail that ends it.
type blockCase struct {
	name string
	seed int64
	n    int // body length
	regs int
	tail string // "", "bcc" (cmp -> bcc), "fbcc" (fcmp -> fbcc), "bcc+j", "jal"
	same target.Op
}

func (c blockCase) build() []target.Inst {
	no := target.NoReg
	var body []target.Inst
	if c.same != target.Nop {
		// Equal-priority ties: independent instructions of one
		// latency, every choice broken by index alone.
		for i := 0; i < c.n; i++ {
			in := target.Inst{Op: c.same, Rd: target.Reg(1 + i%20), Rs1: 29, Rs2: no, Imm: int32(4 * i)}
			if i >= 20 {
				in.Rd += 32 // FP registers: no WAW with the first 20
			}
			body = append(body, in)
		}
	} else {
		g := &blockGen{r: rand.New(rand.NewSource(c.seed)), regs: c.regs}
		for i := 0; i < c.n; i++ {
			body = append(body, g.inst())
		}
	}
	switch c.tail {
	case "bcc", "bcc+j":
		body = append(body,
			target.Inst{Op: target.Cmp, Rd: no, Rs1: 1, Rs2: 2},
			target.Inst{Op: target.Bcc, Rd: no, Rs1: no, Rs2: no, CC: target.CCLt, Target: 7})
		if c.tail == "bcc+j" {
			body = append(body, target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no, Target: 9})
		}
	case "fbcc":
		body = append(body,
			target.Inst{Op: target.Fcmp, Rd: no, Rs1: 32, Rs2: 33},
			target.Inst{Op: target.FBcc, Rd: no, Rs1: no, Rs2: no, CC: target.CCEq, Target: 7})
	case "jal":
		body = append(body, target.Inst{Op: target.Jal, Rd: 31, Rs1: no, Rs2: no, Target: 3, Imm: 2})
	}
	for i := range body {
		body[i].Src = int32(i)
	}
	return body
}

var blockCases = []blockCase{
	{name: "tiny", seed: 1, n: 6, regs: 4, tail: "bcc"},
	{name: "small-dense", seed: 2, n: 24, regs: 3, tail: "bcc+j"},
	{name: "medium", seed: 3, n: 64, regs: 6, tail: "fbcc"},
	{name: "wide", seed: 4, n: 96, regs: 16, tail: "jal"},
	{name: "long-200", seed: 5, n: 200, regs: 8, tail: "bcc"},
	{name: "long-256", seed: 6, n: 256, regs: 5, tail: "bcc+j"},
	{name: "long-sparse", seed: 7, n: 230, regs: 24},
	{name: "ties-loads", n: 40, same: target.Lw, tail: "bcc"},
	{name: "ties-alu", n: 200, same: target.AddI},
}

// goldenMachines are the four targets plus a PPC variant whose
// compares fold into the branch with zero result latency, so a
// finish cycle equal to the issue cycle is covered.
func goldenMachines() []*target.Machine {
	ms := target.Machines()
	fold := *target.PPCMachine()
	fold.Name = "ppc-fold"
	for _, op := range []target.Op{target.Cmp, target.CmpI, target.CmpUI, target.Fcmp} {
		fold.Latency[op] = 0
	}
	return append(ms, &fold)
}

// permutationDigest hashes the order Block chose, as the sequence of
// original positions (each instruction's Src).
func permutationDigest(out []target.Inst) string {
	h := sha256.New()
	var b [4]byte
	for i := range out {
		binary.LittleEndian.PutUint32(b[:], uint32(out[i].Src))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestScheduleRandomBlocksGolden pins the order Block picks for seeded
// random blocks on every machine: the exact schedule, not just its
// legality, so a rewrite of the scheduler must reproduce every choice,
// tie-breaks included. Each output is also checked legal.
func TestScheduleRandomBlocksGolden(t *testing.T) {
	var lines []string
	for _, c := range blockCases {
		block := c.build()
		for _, m := range goldenMachines() {
			out := schedule(block, m)
			if err := legalityErr(block, out); err != nil {
				t.Errorf("%s/%s: %v", c.name, m.Name, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", c.name, m.Name, permutationDigest(out)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(blocksGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(blocksGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cases, the test produces %d", blocksGolden, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("schedule changed:\n  got:  %s\n  want: %s", lines[i], want[i])
		}
	}
}

// reused is the one Scheduler every test schedules with, so stale
// scratch from one block would show up in the next.
var reused Scheduler

// schedule runs Block on a copy of block.
func schedule(block []target.Inst, m *target.Machine) []target.Inst {
	out := append([]target.Inst(nil), block...)
	reused.Block(out, m)
	return out
}
