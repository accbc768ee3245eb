package sfi_test

import (
	"strings"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/sfi"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// Adversarial verifier testing: take genuine translator output (which
// must verify cleanly), seed one targeted violation of each class an
// attacker — or a translator bug — could introduce, and require the
// verifier to report it. This is the contract that lets the translator
// stay outside the trusted computing base: anything it gets wrong in
// these directions is caught at load time.

// mutationProgram has sandboxed global stores, an indirect call
// through a function pointer, and returns — one site for every
// mutation class on every machine.
const mutationProgram = `
int g[256];
int add2(int x) { return x + 2; }
int (*fp)(int) = add2;
int main(void) {
	int i;
	for (i = 0; i < 256; i++) g[i] = fp(i);
	return g[200];
}`

// A mutator edits prog in place and returns the index it mutated, or
// -1 when it found no applicable site (a test failure: the program
// above is built to contain every site on every machine).
type mutator struct {
	name string
	why  string // substring the seeded violation must report
	edit func(prog *target.Program, m *target.Machine, p sfi.Policy) int
}

var mutators = []mutator{
	{
		// Remove the masking instruction ahead of a sandboxed store:
		// the store then goes through an unproven register value.
		name: "drop-sandbox-mask",
		why:  "store not provably inside the data segment",
		edit: func(prog *target.Program, m *target.Machine, p sfi.Policy) int {
			for i := range prog.Code {
				in := &prog.Code[i]
				if in.Cat != target.CatSFI || in.Rd != m.SFIAddr {
					continue
				}
				isMask := in.Op == target.And && in.Rs2 == m.SFIMask ||
					(m.Arch == target.X86 && in.Op == target.AndI && uint32(in.Imm) == p.DataMask)
				if !isMask {
					continue
				}
				in.Op = target.Nop
				in.Rd, in.Rs1, in.Rs2 = target.NoReg, target.NoReg, target.NoReg
				in.Imm = 0
				return i
			}
			return -1
		},
	},
	{
		// Widen a store displacement past the guard zone: the base
		// register is still provably in-segment, but the effective
		// address escapes the guard pages around it.
		name: "widen-store-displacement",
		why:  "store not provably inside the data segment",
		edit: func(prog *target.Program, m *target.Machine, p sfi.Policy) int {
			sp := m.OmniInt[14]
			// Prefer a store through the sandbox register; fall back to
			// a stack-relative store (PPC/SPARC sandboxed stores use the
			// indexed form, which has no displacement to widen).
			for _, wantSFI := range []bool{true, false} {
				for i := range prog.Code {
					in := &prog.Code[i]
					if !in.Op.IsStore() || in.Indexed {
						continue
					}
					if wantSFI && in.Rs1 != m.SFIAddr {
						continue
					}
					if !wantSFI && in.Rs1 != sp {
						continue
					}
					in.Imm += 2 * p.GuardZone
					return i
				}
			}
			return -1
		},
	},
	{
		// Retarget an indirect jump: read the branch target from a
		// register the code-mask proof does not cover.
		name: "retarget-indirect-jump",
		why:  "indirect branch through unsandboxed register",
		edit: func(prog *target.Program, m *target.Machine, p sfi.Policy) int {
			for i := range prog.Code {
				in := &prog.Code[i]
				if in.Op != target.Jr && in.Op != target.Jalr {
					continue
				}
				in.Rs1 = m.Scratch[0]
				return i
			}
			return -1
		},
	},
}

// The same adversarial mutations, driven through the translation
// cache's admission gate: a mutated (unsandboxed) program must never
// become a cache entry, on any machine. This is the serving-layer
// version of the verifier contract — the cache is the choke point that
// keeps a compromised translation from ever being executed.
func TestMutatedTranslationRejectedByCache(t *testing.T) {
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: mutationProgram}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := translate.Paper(true)
	si := core.SegInfoFor(mod, core.RunConfig{})
	for _, m := range target.Machines() {
		// AdmitKeyed is the road a translation made elsewhere takes in
		// production, correspondence check included.
		k := mcache.Key(mod, m, si, opt)
		retranslate := func() (*target.Program, error) { return translate.Translate(mod, m, si, opt) }
		for _, mu := range mutators {
			t.Run(m.Name+"/"+mu.name, func(t *testing.T) {
				prog, err := retranslate()
				if err != nil {
					t.Fatal(err)
				}
				c := mcache.New(0)
				// The clean translation is admitted.
				if err := c.AdmitKeyed(k, prog, retranslate); err != nil {
					t.Fatalf("clean translation rejected: %v", err)
				}
				mutated, err := retranslate()
				if err != nil {
					t.Fatal(err)
				}
				p := sfi.PolicyFor(m, si)
				p.GuardZone = 4096
				if idx := mu.edit(mutated, m, p); idx < 0 {
					t.Fatal("no mutation site found")
				}
				c2 := mcache.New(0)
				err = c2.AdmitKeyed(k, mutated, retranslate)
				if err == nil {
					t.Fatal("mutated translation admitted to the cache")
				}
				if !strings.Contains(err.Error(), mu.why) {
					t.Errorf("rejection reason mismatch: want %q in %v", mu.why, err)
				}
				if s := c2.Stats(); s.Rejected != 1 || s.Entries != 0 {
					t.Errorf("cache state after rejection: %+v", s)
				}
			})
		}
	}
}

func TestSeededViolationsAreReported(t *testing.T) {
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: mutationProgram}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range target.Machines() {
		for _, mu := range mutators {
			t.Run(m.Name+"/"+mu.name, func(t *testing.T) {
				h, err := core.NewHost(mod, core.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				prog, err := h.Translate(m, translate.Paper(true))
				if err != nil {
					t.Fatal(err)
				}
				p := policyFor(h, m)
				if p.GuardZone == 0 {
					p.GuardZone = 4096
				}

				// The unmutated translation must be violation-free —
				// otherwise the assertions below prove nothing.
				if vs := sfi.Verify(prog, p); len(vs) != 0 {
					t.Fatalf("clean translation reported violations: %s", vs[0])
				}

				idx := mu.edit(prog, m, p)
				if idx < 0 {
					t.Fatalf("no mutation site found")
				}
				vs := sfi.Verify(prog, p)
				if len(vs) == 0 {
					t.Fatalf("seeded %s at inst %d not reported", mu.name, idx)
				}
				found := false
				for _, v := range vs {
					if strings.Contains(v.Why, mu.why) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("violation class mismatch: want %q, got %s", mu.why, vs[0])
				}
			})
		}
	}
}
