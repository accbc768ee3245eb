// Package native compiles OmniC IR directly to target code — the
// stand-in for the paper's vendor cc and gcc baselines (Tables 3-6).
// Unlike the load-time translator it sees whole functions (not single
// OmniVM instructions), may use the full architectural register file,
// needs no SFI, and applies machine-dependent optimization whose
// aggressiveness depends on the profile:
//
//   - ProfCC  — the vendor compiler: local scheduling + delay-slot
//     filling, PPC compare folding (branch on a just-computed value
//     without an explicit cmp, modelling record forms), x86
//     register-memory ALU fusion.
//   - ProfGCC — weaker machine-dependent optimization: no scheduling,
//     unfilled delay slots on MIPS, explicit compares everywhere.
//
// The data image still comes from the linked OmniVM module (layout is
// compiler-controlled either way); function pointers in data are
// patched from OmniVM indices to native indices via Result.FuncEntry.
package native

import (
	"fmt"
	"math"

	"omniware/internal/cc/ir"
	"omniware/internal/ovm"
	"omniware/internal/target"
)

// Profile selects the baseline compiler being modelled.
type Profile int

const (
	ProfCC Profile = iota
	ProfGCC
)

func (p Profile) String() string {
	if p == ProfCC {
		return "cc"
	}
	return "gcc"
}

// Result is a natively compiled program.
type Result struct {
	Prog      *target.Program
	FuncEntry map[string]int32
	FPPool    []float64 // constants to place in memory; see Bind
}

// Bind finalizes pool-relative FP-constant loads once the runtime has
// chosen a pool base address, and returns the pool bytes to install
// there.
func (r *Result) Bind(poolBase uint32) []byte {
	for i := range r.Prog.Code {
		in := &r.Prog.Code[i]
		if in.Sym == fpPoolSym {
			in.Imm += int32(poolBase)
			in.Sym = ""
		}
	}
	out := make([]byte, 8*len(r.FPPool))
	for i, v := range r.FPPool {
		putF64(out[i*8:], v)
	}
	return out
}

const fpPoolSym = "$fppool"

func putF64(b []byte, v float64) {
	bits := f64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
}

// Compile compiles all functions of a program against the linked
// module's data layout. regSave is the load-time address of the
// register-save area (used for the memory-resident return register on
// x86); pass hostapi.Layout.RegSave.
func Compile(funcs []*ir.Func, mod *ovm.Module, mach *target.Machine, prof Profile, regSave uint32) (*Result, error) {
	cc := &compiler{
		funcs:   funcs,
		mod:     mod,
		m:       mach,
		prof:    prof,
		regsave: regSave,
		syms:    map[string]ovm.Symbol{},
		fpool:   map[uint64]int{},
	}
	for _, s := range mod.Symbols {
		if _, dup := cc.syms[s.Name]; !dup {
			cc.syms[s.Name] = s
		}
	}
	return cc.run()
}

type compiler struct {
	funcs []*ir.Func
	mod   *ovm.Module
	m     *target.Machine
	prof  Profile

	regsave uint32
	syms    map[string]ovm.Symbol
	fpool   map[uint64]int
	pool    []float64

	// Per-function emission state lives in emitter.
}

// regConfig builds the allocatable register lists for this machine.
// The native compiler may use registers the translated path must
// reserve (SFI dedicated registers, translator scratch) — the concrete
// form of "the runtime reserves some registers" from §3.2.
func (c *compiler) regConfig() (ints []int, intCallee map[int]bool, fps []int, fpCallee map[int]bool) {
	m := c.m
	intCallee = map[int]bool{}
	fpCallee = map[int]bool{}
	seen := map[int]bool{}
	add := func(r target.Reg, callee bool) {
		n := int(r)
		if r == target.NoReg || seen[n] {
			return
		}
		seen[n] = true
		ints = append(ints, n)
		if callee {
			intCallee[n] = true
		}
	}
	// Caller-saved images of OmniVM r5..r9 and r1..r4 first, then
	// callee-saved images of r10..r13, then the reserved registers the
	// native compiler is free to use.
	for i := 5; i <= 9; i++ {
		add(m.OmniInt[i], false)
	}
	for i := 1; i <= 4; i++ {
		add(m.OmniInt[i], false)
	}
	for i := 10; i <= 13; i++ {
		add(m.OmniInt[i], true)
	}
	// Extra registers beyond the OmniVM images: the cc profile uses the
	// full architectural file; the gcc profile models the era's weaker
	// register allocation by leaving most of them idle (least effective
	// on PPC, adequate on SPARC — the spread Table 6 reports).
	extras := 7
	if c.prof == ProfGCC {
		switch m.Arch {
		case target.PPC:
			extras = 0
		case target.MIPS:
			extras = 2
		case target.X86:
			extras = 0
		default: // SPARC: near parity
			extras = 6
		}
	}
	if m.Arch != target.X86 {
		pool := []target.Reg{m.SFIAddr, m.SFIMask, m.SFIBase, m.CodeMask, m.GP, m.Scratch[0], m.Scratch[1]}
		callee := map[target.Reg]bool{m.SFIBase: true, m.CodeMask: true, m.GP: true, m.Scratch[0]: true, m.Scratch[1]: true}
		for i, r := range pool {
			if i >= extras {
				break
			}
			add(r, callee[r])
		}
	} else if extras > 0 {
		add(target.EDI, true)
		add(target.EBP, true)
	}

	for i := 0; i <= 7; i++ {
		if r := m.OmniFP[i]; r != target.NoReg {
			fps = append(fps, int(r))
		}
	}
	for i := 8; i <= 15; i++ {
		if r := m.OmniFP[i]; r != target.NoReg {
			fps = append(fps, int(r))
			fpCallee[int(r)] = true
		}
	}
	if m.Arch != target.X86 {
		fps = append(fps, int(m.FScratch[0]), int(m.FScratch[1]))
	} else {
		fps = append(fps, int(m.FScratch[0]), int(m.FScratch[1]))
	}
	return
}

func (c *compiler) run() (*Result, error) {
	res := &Result{FuncEntry: map[string]int32{}}

	// Startup stub: call main, then exit with its result.
	var code []target.Inst
	type callFix struct {
		idx  int
		name string
	}
	var fixes []callFix

	stubCall := len(code)
	code = append(code, target.Inst{Op: target.Jal, Rd: c.raRegOrScratch(), Rs1: target.NoReg, Rs2: target.NoReg, Src: -1})
	if c.m.OmniInt[15] == target.NoReg {
		// Memory-resident return register: the stub uses the explicit
		// store + jump form (see emitter.call).
		code = code[:stubCall]
		s := c.m.Scratch[0]
		code = append(code,
			target.Inst{Op: target.MovI, Rd: s, Rs1: target.NoReg, Rs2: target.NoReg, Src: -1}, // Imm patched below
			target.Inst{Op: target.Sw, Rd: s, Rs1: target.NoReg, Rs2: target.NoReg, Imm: 0, Src: -1},
			target.Inst{Op: target.J, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Src: -1},
		)
		fixes = append(fixes, callFix{idx: len(code) - 1, name: "main"})
	} else {
		fixes = append(fixes, callFix{idx: stubCall, name: "main"})
	}
	if c.m.HasDelaySlot {
		code = append(code, target.Inst{Op: target.Nop, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Src: -1})
	}
	code = append(code,
		target.Inst{Op: target.Syscall, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Imm: 0, Src: -1},
		target.Inst{Op: target.Halt, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg, Src: -1},
	)
	retIdx := stubCall + 1
	if c.m.OmniInt[15] == target.NoReg {
		retIdx = stubCall + 3 // after MovI/Sw/J
		code[stubCall].Imm = int32(retIdx)
		code[stubCall+1].Imm = int32(c.regSave() + 15*4)
	} else {
		code[stubCall].Imm = int32(retIdx)
		if c.m.HasDelaySlot {
			code[stubCall].Imm = int32(stubCall + 2)
		}
	}

	// Compile each function.
	for _, f := range c.funcs {
		e, err := c.emitFunc(f)
		if err != nil {
			return nil, fmt.Errorf("native/%s: %s: %w", c.m.Name, f.Name, err)
		}
		entry := int32(len(code))
		res.FuncEntry[f.Name] = entry
		// Relocate unit-relative targets and record call fixups.
		for i := range e.code {
			in := e.code[i]
			if in.Op.HasTarget() {
				if in.Sym != "" && in.Sym != fpPoolSym {
					fixes = append(fixes, callFix{idx: len(code), name: in.Sym})
					in.Sym = ""
				} else if in.Target >= 0 {
					in.Target += entry
				}
			}
			if in.Op == target.MovI && in.Sym != "" && in.Sym != fpPoolSym && in.Sym != retMark {
				// Address of a function.
				fixes = append(fixes, callFix{idx: len(code), name: in.Sym})
				in.Sym = ""
			}
			// Return-index arithmetic for calls: Jal.Imm was emitted
			// function-relative.
			if (in.Op == target.Jal || in.Op == target.Jalr) && in.Imm >= 0 {
				in.Imm += entry
			}
			if in.Op == target.MovI && in.Sym == retMark {
				in.Sym = ""
				in.Imm += entry
			}
			code = append(code, in)
		}
	}

	// Apply call fixups.
	for _, fx := range fixes {
		entry, ok := res.FuncEntry[fx.name]
		if !ok {
			return nil, fmt.Errorf("native/%s: undefined function %q", c.m.Name, fx.name)
		}
		in := &code[fx.idx]
		if in.Op == target.MovI {
			in.Imm = entry
		} else {
			in.Target = entry
		}
	}

	res.FPPool = c.pool
	res.Prog = &target.Program{Arch: c.m.Arch, Code: code, Entry: 0}
	return res, nil
}

const retMark = "$ret"

func (c *compiler) raRegOrScratch() target.Reg {
	if r := c.m.OmniInt[15]; r != target.NoReg {
		return r
	}
	return c.m.Scratch[0]
}

func (c *compiler) regSave() uint32 { return c.regsave }

// fpConst interns an FP constant into the pool and returns its offset.
func (c *compiler) fpConst(v float64) int32 {
	bits := f64bits(v)
	if i, ok := c.fpool[bits]; ok {
		return int32(i * 8)
	}
	i := len(c.pool)
	c.fpool[bits] = i
	c.pool = append(c.pool, v)
	return int32(i * 8)
}

// symAddr resolves a data symbol to its absolute address.
func (c *compiler) symAddr(name string) (uint32, bool) {
	s, ok := c.syms[name]
	if !ok || s.Section == ovm.SecText {
		return 0, false
	}
	return s.Value, true
}

// funcSym reports whether name is a compiled function.
func (c *compiler) isFunc(name string) bool {
	for _, f := range c.funcs {
		if f.Name == name {
			return true
		}
	}
	return false
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }
