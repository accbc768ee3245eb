package absint_test

import (
	"strings"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/sfi"
	"omniware/internal/sfi/absint"
	"omniware/internal/target"
	"omniware/internal/translate"
)

var verifierPrograms = []string{
	`
int g[100];
struct s { int a; char b; double d; } sv;
int main(void) {
	int i;
	int *p = g;
	for (i = 0; i < 100; i++) g[i] = i;
	for (i = 0; i < 100; i += 2) p[i] = -i;
	sv.a = 1; sv.b = 'x'; sv.d = 2.5;
	char *hp = _sbrk(64);
	for (i = 0; i < 64; i++) hp[i] = (char)i;
	return g[50] + (int)sv.b;
}`,
	`
int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
int (*f)(int) = fib;
int main(void) { return f(10); }`,
}

// Every program the translator emits with SFI must pass the abstract
// interpreter on every machine, and the stats must
// account for every obligation the program contains.
func TestTranslatorOutputVerifies(t *testing.T) {
	for pi, src := range verifierPrograms {
		mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range target.Machines() {
			for _, hoist := range []bool{false, true} {
				h, err := core.NewHost(mod, core.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				opt := translate.Paper(true)
				opt.SFIHoist = hoist
				prog, err := h.Translate(m, opt)
				if err != nil {
					t.Fatal(err)
				}
				pol := sfi.PolicyFor(m, h.SegInfo())
				var st absint.Stats
				if vs := absint.VerifyStats(prog, pol, &st); len(vs) != 0 {
					for _, v := range vs {
						t.Errorf("prog %d %s hoist=%v: %s", pi, m.Name, hoist, v)
					}
					continue
				}
				want := sfi.Survey(prog)
				if st.Stores != want.Stores || st.Indirects != want.Indirects {
					t.Errorf("prog %d %s hoist=%v: stats %d/%d obligations, survey says %d/%d",
						pi, m.Name, hoist, st.Stores, st.Indirects, want.Stores, want.Indirects)
				}
				if st.Blocks == 0 || st.Iterations == 0 {
					t.Errorf("prog %d %s hoist=%v: empty analysis stats %+v", pi, m.Name, hoist, st)
				}
			}
		}
	}
}

// Without SFI the same programs must not verify.
func TestUnsandboxedCodeFailsVerification(t *testing.T) {
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: verifierPrograms[0]}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range target.Machines() {
		h, err := core.NewHost(mod, core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := h.Translate(m, translate.Paper(false))
		if err != nil {
			t.Fatal(err)
		}
		if err := absint.Check(prog, m, h.SegInfo()); err == nil {
			t.Errorf("%s: unsandboxed program passed the abstract interpreter", m.Name)
		} else if !strings.Contains(err.Error(), "absint:") {
			t.Errorf("%s: error does not carry the absint prefix: %v", m.Name, err)
		}
	}
}

// The one documented precision difference between the verifiers: a
// diamond that sandboxes the address in BOTH arms and stores after the
// join. The elder verifier forgets everything at the block boundary and
// rejects; the abstract interpreter joins the two sandboxed states and
// accepts; and the executor confirms the accept is sound. This is the
// strict half of the containment contract (absint accepts ⊋ Check
// accepts) pinned as a test.
func TestJoinPrecisionKnownDifference(t *testing.T) {
	for _, m := range target.Machines() {
		if m.Arch == target.X86 {
			continue // built from the register-form idiom below
		}
		th := harnessFor(t, m)
		prog := diamondProgram(th)
		checkVs := sfi.Verify(prog, th.pol)
		if len(checkVs) == 0 {
			t.Errorf("%s: sfi.Check accepted the cross-block diamond (expected its block reset to reject)", m.Name)
		}
		if vs := absint.Verify(prog, th.pol); len(vs) != 0 {
			t.Errorf("%s: full absint rejected the diamond its joins should prove: %v", m.Name, vs)
		}
		if esc := th.contained(prog); len(esc) != 0 {
			t.Errorf("%s: the diamond escaped at runtime: %v", m.Name, esc)
		}
	}
}

// diamondProgram builds: branch to one of two arms, each arm masks and
// rebases the sandbox register, both fall into a store block that is a
// branch target (hence a leader where sfi.Check resets facts).
func diamondProgram(th *tharness) *target.Program {
	m, p := th.m, th.pol
	no := target.NoReg
	A := m.SFIAddr
	R := m.OmniInt[2]
	var code []target.Inst
	emit := func(in target.Inst) int32 {
		code = append(code, in)
		return int32(len(code) - 1)
	}
	pad := func() {
		if m.HasDelaySlot {
			emit(target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no})
		}
	}
	// Stub.
	loadConst := func(rd target.Reg, val uint32) {
		if rd == no {
			return
		}
		emit(target.Inst{Op: target.Lui, Rd: rd, Rs1: no, Rs2: no, Imm: int32(val >> 16)})
		if lo := val & 0xffff; lo != 0 {
			emit(target.Inst{Op: target.OrI, Rd: rd, Rs1: rd, Rs2: no, Imm: int32(lo)})
		}
	}
	const nOmni = 2
	loadConst(m.SFIMask, p.DataMask)
	loadConst(m.SFIBase, p.DataBase)
	loadConst(m.CodeMask, nOmni-1)
	loadConst(m.GP, p.GPValue)
	jEntry := emit(target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no})
	pad()

	entry := int32(len(code))
	code[jEntry].Target = entry
	// if (R == 0) goto armB;
	b := emit(target.Inst{Op: target.Beqz, Rd: no, Rs1: R, Rs2: no})
	pad()
	// armA: mask + rebase, jump to join
	emit(target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask})
	emit(target.Inst{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase})
	j := emit(target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no})
	pad()
	// armB: the same sandbox, different arm
	armB := int32(len(code))
	code[b].Target = armB
	emit(target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask})
	emit(target.Inst{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase})
	// join: a branch target, so the elder verifier resets facts here
	join := int32(len(code))
	code[j].Target = join
	emit(target.Inst{Op: target.Sw, Rd: R, Rs1: A, Rs2: no, Imm: 0})
	emit(target.Inst{Op: target.Halt, Rd: no, Rs1: no, Rs2: no})
	trap := emit(target.Inst{Op: target.Break, Rd: no, Rs1: no, Rs2: no})
	return &target.Program{
		Arch:         m.Arch,
		Code:         code,
		Entry:        0,
		OmniToNative: []int32{trap, trap},
	}
}

// Entry is a fact boundary for both verifiers. The probe puts the
// sandbox mask and rebase before Entry, a store through the sandbox
// register at Entry, and the dedicated-register stub after it; control
// starts at Entry, so the sequence before it proves nothing. A
// wire-decoded program may carry any in-range Entry, and buildSynth
// always emits Entry 0, so the fuzzer and the enumerator never build
// this shape.
func TestEntryIsAFactBoundary(t *testing.T) {
	for _, m := range target.Machines() {
		th := harnessFor(t, m)
		prog := entryProbe(th)
		if vs := sfi.Verify(prog, th.pol); len(vs) == 0 {
			t.Errorf("%s: sfi.Verify accepted a store whose sandbox sequence precedes Entry", m.Name)
		}
		classify(t, th, prog, func() string { return m.Name + " entry probe" })
	}
}

func entryProbe(th *tharness) *target.Program {
	m, p := th.m, th.pol
	no := target.NoReg
	A, R := m.SFIAddr, m.OmniInt[2]
	code := []target.Inst{
		{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask},
		{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase},
	}
	if m.Arch == target.X86 {
		code = []target.Inst{
			{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: int32(p.DataMask)},
			{Op: target.OrI, Rd: A, Rs1: A, Rs2: no, Imm: int32(p.DataBase)},
		}
	}
	entry := int32(len(code))
	code = append(code, target.Inst{Op: target.Sw, Rd: R, Rs1: A, Rs2: no})
	code = th.loadPinned(code, 2)
	code = append(code, target.Inst{Op: target.Halt, Rd: no, Rs1: no, Rs2: no})
	trap := int32(len(code))
	code = append(code, target.Inst{Op: target.Break, Rd: no, Rs1: no, Rs2: no})
	return &target.Program{
		Arch:         m.Arch,
		Code:         code,
		Entry:        entry,
		OmniToNative: []int32{trap, trap},
	}
}

// Check's error message must carry the per-kind violation totals.
func TestCheckErrorReportsPerKindTotals(t *testing.T) {
	th := harnessFor(t, target.Machines()[0])
	// Three violating stores and one violating indirect branch.
	no := target.NoReg
	R := th.m.OmniInt[2]
	seq := []synthInst{
		{in: target.Inst{Op: target.Sw, Rd: R, Rs1: R, Rs2: no, Imm: 0}},
		{in: target.Inst{Op: target.Sw, Rd: R, Rs1: R, Rs2: no, Imm: 4}},
		{in: target.Inst{Op: target.Jr, Rd: no, Rs1: R, Rs2: no}},
	}
	prog := buildSynth(th, seq)
	err := sfi.Check(prog, th.m, th.host.SegInfo())
	if err == nil {
		t.Fatal("violating program passed sfi.Check")
	}
	for _, want := range []string{"2 store", "1 indirect"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("sfi.Check error %q does not carry per-kind total %q", err, want)
		}
	}
	if _, err := absint.CheckStats(prog, th.m, th.host.SegInfo()); err == nil {
		t.Fatal("violating program passed absint.Check")
	}
}
