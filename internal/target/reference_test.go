package target_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/coretest"
	"omniware/internal/ovm"
	"omniware/internal/seg"
	"omniware/internal/sfi"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// TestSimMatchesReference holds the lowered executor to the
// Inst-at-a-time one it replaced (ref_test.go), instruction for
// instruction: the same Result (exit, counts, cycles, fault), output,
// error, stores in the same order, and final data segment, on
//
//   - every benchmark program on every target, SFI on and off (-short:
//     compress only);
//   - the SFI differential seed corpus (internal/sfi/absint), whose
//     synthesized and mutated programs fault and jump wild;
//   - hand-built control-flow corners on every target: a fault, a trap
//     and a syscall in a delay slot, a branch with nothing after it,
//     wild indirect jumps, each with and without a handler;
//   - budget exhaustion at every instruction of a short run and an
//     Interrupt in a long one, on the delay-slot machines, which must
//     stop at the same instruction with the same error.
//
// Every lowered run reuses one Sim through Reset, as a pooled host
// does, so lowering into storage sized for another program is covered.
func TestSimMatchesReference(t *testing.T) {
	var sim target.Sim
	t.Run("bench", func(t *testing.T) {
		cases, err := coretest.BenchCases(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			if testing.Short() && c.Name != "bench-compress" {
				continue
			}
			mod, err := core.BuildC(c.Files, c.Opts)
			if err != nil {
				t.Fatal(err)
			}
			mk := hostFor(t, mod, core.RunConfig{})
			for _, m := range target.Machines() {
				for _, sfiOn := range []bool{true, false} {
					prog, err := translate.Translate(mod, m, core.SegInfoFor(mod, core.RunConfig{}), translate.Paper(sfiOn))
					if err != nil {
						t.Fatal(err)
					}
					differ(t, &sim, fmt.Sprintf("%s/%s/sfi=%v", c.Name, m.Name, sfiOn), mk, m, prog, limits{})
				}
			}
		}
	})
	t.Run("absint-corpus", func(t *testing.T) {
		for _, s := range corpusSeeds(t) {
			prog, th := decodeSeed(t, s.data)
			if prog == nil {
				t.Fatalf("seed %s does not decode", s.name)
			}
			differ(t, &sim, s.name, th.host, th.m, prog, limits{budget: 5000})
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
					differ(t, &sim, fmt.Sprintf("%s/%s/handler=%d", m.Name, name, handler), mk, m, prog, limits{budget: 1000})
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
				differ(t, &sim, fmt.Sprintf("%s/budget=%d", m.Name, b), mk, m, prog, limits{budget: b})
			}

			// The Interrupt, raised from inside a long run after its n-th
			// store, so both executors see it at the same point; it takes
			// effect at the next poll.
			mk = hostFor(t, long, core.RunConfig{})
			if prog, err = translate.Translate(long, m, core.SegInfoFor(long, core.RunConfig{}), translate.Paper(true)); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3000, 100000} {
				name := fmt.Sprintf("%s/interrupt@%d", m.Name, n)
				if err := differ(t, &sim, name, mk, m, prog, limits{stopAfter: n}); !errors.Is(err, target.ErrInterrupted) {
					t.Errorf("%s: the reference ran to %v, not to the interrupt", name, err)
				}
			}
		}
	})
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

// differ runs prog once through each executor, each on a fresh host,
// reports every difference, and returns the reference's error.
func differ(t *testing.T, sim *target.Sim, name string, mk func() *core.Host, m *target.Machine, prog *target.Program, lim limits) error {
	t.Helper()
	run := func(ref bool) outcome {
		h := mk()
		var o outcome
		var stop *atomic.Bool
		if lim.stopAfter > 0 {
			stop = new(atomic.Bool)
		}
		trace := func(addr, size uint32, faulted bool) {
			o.stores = append(o.stores, store{addr, size, faulted})
			if len(o.stores) == lim.stopAfter {
				stop.Store(true)
			}
		}
		if ref {
			s := target.NewReference(m, prog, &h.Mem, h.Env)
			s.MaxInsts, s.Interrupt, s.StoreTrace = lim.budget, stop, trace
			o.res, o.err = s.Run()
		} else {
			sim.Reset(m, prog, &h.Mem, h.Env)
			sim.MaxInsts, sim.Interrupt, sim.StoreTrace = lim.budget, stop, trace
			o.res, o.err = sim.Run()
		}
		o.out = h.Output()
		o.data = h.Lay.Seg.Bytes()
		return o
	}
	want, got := run(true), run(false)
	if got.res != want.res {
		t.Errorf("%s: result\n got %+v\nwant %+v", name, got.res, want.res)
	}
	if got.out != want.out {
		t.Errorf("%s: output %q, want %q", name, got.out, want.out)
	}
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		t.Errorf("%s: error %v, want %v", name, got.err, want.err)
	}
	for _, sentinel := range []error{target.ErrBudget, target.ErrInterrupted} {
		if errors.Is(got.err, sentinel) != errors.Is(want.err, sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) differs from the reference", name, got.err, sentinel)
		}
	}
	if len(got.stores) != len(want.stores) {
		t.Errorf("%s: %d stores, want %d", name, len(got.stores), len(want.stores))
	} else {
		for i := range got.stores {
			if got.stores[i] != want.stores[i] {
				t.Errorf("%s: store %d is %+v, want %+v", name, i, got.stores[i], want.stores[i])
				break
			}
		}
	}
	if !bytes.Equal(got.data, want.data) {
		t.Errorf("%s: data segments differ after the run", name)
	}
	return want.err
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
