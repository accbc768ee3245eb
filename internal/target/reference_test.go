package target_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/ovm"
	"omniware/internal/seg"
	"omniware/internal/sfi"
	"omniware/internal/target"
	"omniware/internal/translate"
)

var update = flag.Bool("update", false, "rewrite testdata/reference.golden from the current executor")

// referenceGolden holds one line per case: the outcome the
// Inst-at-a-time executor the lowered one replaced recorded for it.
const referenceGolden = "testdata/reference.golden"

// TestSimMatchesReference holds the lowered executor to the recorded
// outcomes of the Inst-at-a-time executor it replaced, instruction for
// instruction: the same Result (exit, counts, cycles, fault), output,
// error text and sentinel, stores in the same order, and final data
// segment, on
//
//   - the SFI differential seed corpus (internal/sfi/absint), whose
//     synthesized and mutated programs fault and jump wild;
//   - hand-built control-flow corners on every target: a fault, a trap
//     and a syscall in a delay slot, a branch with nothing after it,
//     wild indirect jumps, each with and without a handler;
//   - budget exhaustion at every instruction of a short run and an
//     Interrupt in a long one, on the delay-slot machines, which must
//     stop at the same instruction with the same error.
//
// The benchmark programs on every target, SFI on and off, are pinned
// by benchmark/expected.json's exact counts and the core parity tests.
// Every run reuses one Sim through Reset, as a pooled host does, so
// lowering into storage sized for another program is covered. A
// deliberate change to the executor's semantics is accepted with
// -update, which rewrites the golden file from the current executor.
func TestSimMatchesReference(t *testing.T) {
	want := readGolden(t)
	got := map[string]string{}
	var sim target.Sim
	check := func(t *testing.T, name string, mk func() *core.Host, m *target.Machine, prog *target.Program, lim limits) error {
		t.Helper()
		o := runSim(&sim, mk, m, prog, lim)
		got[name] = o.String()
		if w, ok := want[name]; !*update && (!ok || w != got[name]) {
			t.Errorf("%s:\n got %s\nwant %s", name, got[name], w)
		}
		return o.err
	}
	t.Run("absint-corpus", func(t *testing.T) {
		for _, s := range corpusSeeds(t) {
			prog, th := decodeSeed(t, s.data)
			if prog == nil {
				t.Fatalf("seed %s does not decode", s.name)
			}
			check(t, s.name, th.host, th.m, prog, limits{budget: 5000})
		}
	})
	t.Run("edges", func(t *testing.T) {
		for _, m := range target.Machines() {
			th := harnessFor(t, m)
			for name, prog := range edgePrograms(m) {
				for _, handler := range []int32{-1, 1} {
					mk := func() *core.Host {
						h := th.host()
						h.Env.Handler = handler
						return h
					}
					check(t, fmt.Sprintf("%s/%s/handler=%d", m.Name, name, handler), mk, m, prog, limits{budget: 1000})
				}
			}
		}
	})
	t.Run("limits", func(t *testing.T) {
		short, err := core.BuildC([]core.SourceFile{{Name: "h.c", Src: harnessSrc}}, cc.Options{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		files, err := bench.Sources("compress", 1)
		if err != nil {
			t.Fatal(err)
		}
		long, err := core.BuildC(files, cc.Options{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*target.Machine{target.MIPSMachine(), target.SPARCMachine()} {
			mk := hostFor(t, short, smallHost)
			prog, err := translate.Translate(short, m, core.SegInfoFor(short, smallHost), translate.Paper(true))
			if err != nil {
				t.Fatal(err)
			}
			// Every budget up to past the end of a short run, so the
			// budget lands on every instruction, delay slots included.
			h := mk()
			whole, err := target.New(m, prog, &h.Mem, h.Env).Run()
			if err != nil || whole.Insts < 100 {
				t.Fatalf("%s: unlimited run: %+v, %v", m.Name, whole, err)
			}
			for b := uint64(1); b <= whole.Insts+1; b++ {
				check(t, fmt.Sprintf("%s/budget=%d", m.Name, b), mk, m, prog, limits{budget: b})
			}

			// The Interrupt, raised from inside a long run after its n-th
			// store; it takes effect at the next poll.
			mk = hostFor(t, long, core.RunConfig{})
			if prog, err = translate.Translate(long, m, core.SegInfoFor(long, core.RunConfig{}), translate.Paper(true)); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3000, 100000} {
				name := fmt.Sprintf("%s/interrupt@%d", m.Name, n)
				if err := check(t, name, mk, m, prog, limits{stopAfter: n}); !errors.Is(err, target.ErrInterrupted) {
					t.Errorf("%s: ran to %v, not to the interrupt", name, err)
				}
			}
		}
	})
	if *update {
		writeGolden(t, got)
		return
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded in %s but no longer run", name, referenceGolden)
		}
	}
}

type limits struct {
	budget    uint64 // MaxInsts (0 = none)
	stopAfter int    // raise Interrupt after this many stores (0 = no Interrupt)
}

type store struct {
	addr, size uint32
	faulted    bool
}

type outcome struct {
	res    target.Result
	err    error
	out    string
	stores []store
	data   []byte
}

// String is the outcome's golden-file form. The store trace and the
// data segment are recorded as a count and a digest: any difference
// in either still shows.
func (o outcome) String() string {
	errText, sentinel := "", "-"
	if o.err != nil {
		errText = o.err.Error()
	}
	switch {
	case errors.Is(o.err, target.ErrBudget):
		sentinel = "budget"
	case errors.Is(o.err, target.ErrInterrupted):
		sentinel = "interrupted"
	}
	st := sha256.New()
	for _, s := range o.stores {
		fmt.Fprintf(st, "%x %d %t\n", s.addr, s.size, s.faulted)
	}
	data := sha256.Sum256(o.data)
	r := o.res
	return fmt.Sprintf("exit=%d insts=%d cycles=%d counts=%v faulted=%t fault=%q err=%q is=%s out=%q stores=%d:%x data=%x",
		r.ExitCode, r.Insts, r.Cycles, r.Counts, r.Faulted, r.Fault, errText, sentinel, o.out,
		len(o.stores), st.Sum(nil)[:8], data[:8])
}

// smallHost keeps the many short runs from each zeroing a default
// multi-megabyte data segment.
var smallHost = core.RunConfig{Heap: 16 << 10, Stack: 16 << 10}

// hostFor returns a maker of fresh hosts for mod.
func hostFor(t *testing.T, mod *ovm.Module, cfg core.RunConfig) func() *core.Host {
	return func() *core.Host {
		h, err := core.NewHost(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
}

// runSim runs prog on a fresh host through sim, recording every store.
func runSim(sim *target.Sim, mk func() *core.Host, m *target.Machine, prog *target.Program, lim limits) outcome {
	h := mk()
	var o outcome
	var stop *atomic.Bool
	if lim.stopAfter > 0 {
		stop = new(atomic.Bool)
	}
	sim.Reset(m, prog, &h.Mem, h.Env)
	sim.MaxInsts, sim.Interrupt = lim.budget, stop
	sim.StoreTrace = func(addr, size uint32, faulted bool) {
		o.stores = append(o.stores, store{addr, size, faulted})
		if len(o.stores) == lim.stopAfter {
			stop.Store(true)
		}
	}
	o.res, o.err = sim.Run()
	o.out = h.Output()
	o.data = h.Lay.Seg.Bytes()
	return o
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	if *update {
		return out
	}
	raw, err := os.ReadFile(referenceGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, o, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", referenceGolden, line)
		}
		out[name] = o
	}
	return out
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name + "\t" + got[name] + "\n")
	}
	if err := os.WriteFile(referenceGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// edgePrograms are the control-flow corners, each a few instructions
// ending in halt (index 3 unless noted) with omni-to-native entries
// 0 → 0, 1 → halt, 2 and 3 → a trailing break: a fault, a trap and a
// syscall in a delay slot, a branch with no slot after it, and a wild
// indirect jump. Run with handler 1 a delivered exception lands on the
// halt.
func edgePrograms(m *target.Machine) map[string]*target.Program {
	no := target.NoReg
	R := m.OmniInt[2]
	in := func(op target.Op, rd, rs1, rs2 target.Reg, imm, tgt int32) target.Inst {
		return target.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, Target: tgt, Src: 7}
	}
	halt, brk, nop := in(target.Halt, no, no, no, 0, 0), in(target.Break, no, no, no, 0, 0), in(target.Nop, no, no, no, 0, 0)
	j := func(tgt int32) target.Inst { return in(target.J, no, no, no, 0, tgt) }
	prog := func(code ...target.Inst) *target.Program {
		code = append(code, brk)
		n := int32(len(code))
		return &target.Program{Arch: m.Arch, Code: code, OmniToNative: []int32{0, 3, n - 1, n - 1}}
	}
	return map[string]*target.Program{
		"store-fault-in-slot": prog(in(target.Beqz, no, R, no, 0, 3), in(target.Sw, R, R, no, 0, 0), nop, halt),
		"div-zero-in-slot":    prog(j(3), in(target.Div, R, R, R, 0, 0), nop, halt),
		"break-in-slot":       prog(j(3), brk, nop, halt),
		"halt-in-slot":        prog(j(3), halt, in(target.MovI, R, no, no, 9, 0), halt),
		"jump-in-slot":        prog(j(3), j(0), nop, halt),
		"syscall-in-slot":     prog(j(3), in(target.Syscall, no, no, no, 0, 0), nop, halt),
		"wild-indirect":       prog(in(target.MovI, R, no, no, 100, 0), in(target.Jr, no, R, no, 0, 0), nop, halt),
		"wild-native":         {Arch: m.Arch, Code: []target.Inst{in(target.MovI, R, no, no, -5, 0), in(target.Jr, no, R, no, 0, 0), nop, halt}},
		// The branch is the last instruction and falls through, off the
		// end of the code.
		"branch-last": {Arch: m.Arch, Code: []target.Inst{in(target.MovI, R, no, no, 1, 0), nop, nop, halt, in(target.Beqz, no, R, no, 0, 0)}, Entry: 4},
	}
}

// ---------------------------------------------------------------------
// The SFI differential seed corpus, decoded exactly as
// internal/sfi/absint's harness decodes it (harness_test.go,
// diff_test.go there): a per-target host for harnessSrc with a
// writable victim segment, the reduced instruction alphabet, and the
// mutation of the genuine translation.

const corpusDir = "../sfi/absint/testdata/fuzz/FuzzDifferentialSFI"

const harnessSrc = `
int g[32];
int f(int x) { g[x & 31] = x; return x + 1; }
int (*fp)(int) = f;
int main(void) {
	int i, s = 0;
	for (i = 0; i < 8; i++) s += fp(i);
	g[0] = s;
	return s;
}`

type seed struct {
	name string
	data []byte
}

func corpusSeeds(t *testing.T) []seed {
	names, err := filepath.Glob(filepath.Join(corpusDir, "seed-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no seed corpus under %s (err=%v)", corpusDir, err)
	}
	var out []seed
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, seed{filepath.Base(name), []byte(data)})
	}
	return out
}

type harness struct {
	m    *target.Machine
	pol  sfi.Policy
	base *target.Program
	host func() *core.Host
}

var harnesses = map[string]*harness{}

func harnessFor(t *testing.T, m *target.Machine) *harness {
	if th := harnesses[m.Name]; th != nil {
		return th
	}
	mod, err := core.BuildC([]core.SourceFile{{Name: "h.c", Src: harnessSrc}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	th := &harness{m: m}
	th.host = func() *core.Host {
		cfg := smallHost
		cfg.Out = io.Discard
		h, err := core.NewHost(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vbase := uint32(0x60000000)
		segLo := h.Lay.Seg.Base
		segHi := segLo + h.Lay.Seg.Size()
		if vbase+0x10000 > segLo-0x10000 && vbase < segHi+0x10000 {
			vbase = 0x20000000
		}
		if _, err := h.Mem.Map("victim", vbase, 0x10000, seg.Read|seg.Write); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := th.host()
	th.pol = sfi.PolicyFor(m, h.SegInfo())
	if th.pol.GuardZone == 0 {
		th.pol.GuardZone = 4096
	}
	if th.base, err = h.Translate(m, translate.Paper(true)); err != nil {
		t.Fatal(err)
	}
	harnesses[m.Name] = th
	return th
}

// decodeSeed is absint's decodeProgram.
func decodeSeed(t *testing.T, data []byte) (*target.Program, *harness) {
	if len(data) < 3 {
		return nil, nil
	}
	ms := target.Machines()
	th := harnessFor(t, ms[int(data[0])%len(ms)])
	if data[1]%2 == 0 {
		al := alphabet(th)
		var seq []synthInst
		for i, b := range data[2:] {
			if i == 4 {
				break
			}
			seq = append(seq, al[int(b)%len(al)])
		}
		return buildSynth(th, seq), th
	}
	d := make([]byte, 9)
	copy(d, data)
	prog := *th.base
	prog.Code = append([]target.Inst(nil), th.base.Code...)
	idx := (int(d[2]) | int(d[3])<<8) % len(prog.Code)
	val := uint32(d[5]) | uint32(d[6])<<8 | uint32(d[7])<<16 | uint32(d[8])<<24
	in := &prog.Code[idx]
	switch d[4] % 6 {
	case 0:
		in.Imm = int32(val)
	case 1:
		in.Rd = target.Reg(val % 32)
	case 2:
		in.Rs1 = target.Reg(val % 32)
	case 3:
		in.Rs2 = target.Reg(val % 32)
	case 4:
		ops := []target.Op{target.Sw, target.Sb, target.AddI, target.And, target.Or, target.Mov, target.Jr, target.Nop}
		in.Op = ops[int(val)%len(ops)]
	case 5:
		if in.Op.IsBranch() || in.Op == target.J || in.Op == target.Jal {
			in.Target = int32(int(val) % len(prog.Code))
		}
	}
	return &prog, th
}

const (
	tgtNone = iota
	tgtSeq
	tgtHalt
)

type synthInst struct {
	in  target.Inst
	tgt int
}

// buildSynth is absint's: [stub | seq... | Halt | Break].
func buildSynth(th *harness, seq []synthInst) *target.Program {
	m, p := th.m, th.pol
	no := target.NoReg
	var code []target.Inst
	load := func(rd target.Reg, val uint32) {
		if rd == no {
			return
		}
		if m.Arch == target.X86 {
			code = append(code, target.Inst{Op: target.MovI, Rd: rd, Rs1: no, Rs2: no, Imm: int32(val)})
			return
		}
		code = append(code, target.Inst{Op: target.Lui, Rd: rd, Rs1: no, Rs2: no, Imm: int32(val >> 16)})
		if lo := val & 0xffff; lo != 0 {
			code = append(code, target.Inst{Op: target.OrI, Rd: rd, Rs1: rd, Rs2: no, Imm: int32(lo)})
		}
	}
	load(m.SFIMask, p.DataMask)
	load(m.SFIBase, p.DataBase)
	load(m.CodeMask, 3)
	load(m.GP, p.GPValue)
	jIdx := len(code)
	code = append(code, target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no})
	if m.HasDelaySlot {
		code = append(code, target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no})
	}
	seqStart := int32(len(code))
	code[jIdx].Target = seqStart
	for _, si := range seq {
		code = append(code, si.in)
	}
	haltIdx := int32(len(code))
	code = append(code, target.Inst{Op: target.Halt, Rd: no, Rs1: no, Rs2: no})
	trapIdx := int32(len(code))
	code = append(code, target.Inst{Op: target.Break, Rd: no, Rs1: no, Rs2: no})
	for i, si := range seq {
		switch si.tgt {
		case tgtSeq:
			code[int(seqStart)+i].Target = seqStart
		case tgtHalt:
			code[int(seqStart)+i].Target = haltIdx
		}
	}
	return &target.Program{Arch: m.Arch, Code: code, OmniToNative: []int32{seqStart, haltIdx, trapIdx, trapIdx}}
}

// alphabet is absint's, in the same order: seeds index it.
func alphabet(th *harness) []synthInst {
	m, p := th.m, th.pol
	A, R, sp := m.SFIAddr, m.OmniInt[2], m.OmniInt[14]
	no := target.NoReg
	g := p.GuardZone
	ins := func(in target.Inst) synthInst { return synthInst{in: in} }
	sw := func(base target.Reg, imm int32) synthInst {
		return ins(target.Inst{Op: target.Sw, Rd: R, Rs1: base, Rs2: no, Imm: imm})
	}
	var out []synthInst
	if m.Arch == target.X86 {
		out = append(out,
			ins(target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: int32(p.DataMask)}),
			ins(target.Inst{Op: target.OrI, Rd: A, Rs1: A, Rs2: no, Imm: int32(p.DataBase)}),
			ins(target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: 3}),
			ins(target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: 7}),
			ins(target.Inst{Op: target.Add, Rd: no, Rs1: R, Rs2: no, Imm: int32(p.DataBase + 16), MemDst: true}),
			ins(target.Inst{Op: target.Add, Rd: no, Rs1: R, Rs2: no, Imm: 0x100, MemDst: true}),
		)
	} else {
		out = append(out,
			ins(target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask}),
			ins(target.Inst{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase}),
			ins(target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.CodeMask}),
			ins(target.Inst{Op: target.Sw, Rd: R, Rs1: m.SFIBase, Rs2: A, Indexed: true}),
			sw(m.GP, 8),
			sw(m.GP, 0x7000),
		)
	}
	out = append(out,
		ins(target.Inst{Op: target.AddI, Rd: A, Rs1: A, Rs2: no, Imm: 8}),
		ins(target.Inst{Op: target.AddI, Rd: A, Rs1: A, Rs2: no, Imm: -g}),
		ins(target.Inst{Op: target.AddI, Rd: A, Rs1: A, Rs2: no, Imm: g + 1}),
		sw(A, 0),
		sw(A, 8),
		sw(A, g),
		sw(A, g+4),
		sw(R, 0),
		sw(sp, 8),
		sw(sp, g+4),
		ins(target.Inst{Op: target.MovI, Rd: R, Rs1: no, Rs2: no, Imm: int32(p.DataBase + 64)}),
		ins(target.Inst{Op: target.MovI, Rd: R, Rs1: no, Rs2: no, Imm: 64}),
		ins(target.Inst{Op: target.MovI, Rd: R, Rs1: no, Rs2: no, Imm: 2}),
		ins(target.Inst{Op: target.Mov, Rd: A, Rs1: R, Rs2: no}),
		ins(target.Inst{Op: target.Jr, Rd: no, Rs1: A, Rs2: no}),
		ins(target.Inst{Op: target.Jr, Rd: no, Rs1: R, Rs2: no}),
		synthInst{in: target.Inst{Op: target.Beqz, Rd: no, Rs1: R, Rs2: no}, tgt: tgtHalt},
		synthInst{in: target.Inst{Op: target.Beqz, Rd: no, Rs1: R, Rs2: no}, tgt: tgtSeq},
		ins(target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no}),
	)
	if m.Arch == target.X86 {
		out = append(out, ins(target.Inst{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: 0}))
	}
	return out
}
