package sfi_test

import (
	"strings"
	"testing"

	"omniware/internal/sfi"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// This file is the regression baseline for sfi.Verify's individual
// proof rules: each case is one store or indirect-branch idiom, run on
// every machine it applies to, with the expected verdict pinned. The
// differential fuzzer hunts for disagreements between implementations;
// these tables pin what the rules themselves are supposed to say.

// rulesSegInfo is a fixed synthetic segment: base 0x20000000, 16 MiB
// (mask 0xffffff), gp at base+0x8000.
func rulesSegInfo() translate.SegInfo {
	return translate.SegInfo{
		DataBase: 0x20000000,
		DataMask: 0x00ffffff,
		GPValue:  0x20008000,
	}
}

// loadPinned appends the canonical stub's loads of m's dedicated
// registers with their pinned values, for a program whose
// omni-to-native map has nOmni entries.
func loadPinned(code []target.Inst, m *target.Machine, si translate.SegInfo, nOmni uint32) []target.Inst {
	no := target.NoReg
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
	load(m.SFIMask, si.DataMask)
	load(m.SFIBase, si.DataBase)
	load(m.CodeMask, nOmni-1)
	load(m.GP, si.GPValue)
	return code
}

// buildRuleProg wraps seq in a canonical stub for m (dedicated
// registers loaded with their pinned values, then a jump over a trap
// padding) so the flag-establishing prefix every rule depends on is in
// place.
func buildRuleProg(m *target.Machine, si translate.SegInfo, seq []target.Inst) *target.Program {
	no := target.NoReg
	code := loadPinned(nil, m, si, 2)
	j := len(code)
	code = append(code, target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no})
	if m.HasDelaySlot {
		code = append(code, target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no})
	}
	entry := int32(len(code))
	code[j].Target = entry
	code = append(code, seq...)
	code = append(code, target.Inst{Op: target.Halt, Rd: no, Rs1: no, Rs2: no})
	trap := int32(len(code))
	code = append(code, target.Inst{Op: target.Break, Rd: no, Rs1: no, Rs2: no})
	return &target.Program{
		Arch:         m.Arch,
		Code:         code,
		Entry:        0,
		OmniToNative: []int32{trap, trap},
	}
}

// ruleCase builds its sequence from the machine so register names
// resolve per target.
type ruleCase struct {
	name string
	arch func(m *target.Machine) bool // nil = all machines
	seq  func(m *target.Machine, si translate.SegInfo) []target.Inst
	ok   bool
	why  string // substring required in the violation when !ok
}

func nonX86(m *target.Machine) bool { return m.Arch != target.X86 }
func x86(m *target.Machine) bool    { return m.Arch == target.X86 }

func ruleCases() []ruleCase {
	no := target.NoReg
	const g = translate.GuardZone
	mask := func(m *target.Machine) target.Inst {
		if m.Arch == target.X86 {
			return target.Inst{Op: target.AndI, Rd: m.SFIAddr, Rs1: m.OmniInt[2], Rs2: no, Imm: 0x00ffffff}
		}
		return target.Inst{Op: target.And, Rd: m.SFIAddr, Rs1: m.OmniInt[2], Rs2: m.SFIMask}
	}
	rebase := func(m *target.Machine) target.Inst {
		if m.Arch == target.X86 {
			return target.Inst{Op: target.OrI, Rd: m.SFIAddr, Rs1: m.SFIAddr, Rs2: no, Imm: 0x20000000}
		}
		return target.Inst{Op: target.Or, Rd: m.SFIAddr, Rs1: m.SFIAddr, Rs2: m.SFIBase}
	}
	fold := func(m *target.Machine, imm int32) target.Inst {
		return target.Inst{Op: target.AddI, Rd: m.SFIAddr, Rs1: m.SFIAddr, Rs2: no, Imm: imm}
	}
	sw := func(base target.Reg, imm int32) target.Inst {
		return target.Inst{Op: target.Sw, Rd: 2, Rs1: base, Rs2: no, Imm: imm}
	}
	seq := func(ins ...func(m *target.Machine, si translate.SegInfo) target.Inst) func(*target.Machine, translate.SegInfo) []target.Inst {
		return func(m *target.Machine, si translate.SegInfo) []target.Inst {
			out := make([]target.Inst, len(ins))
			for i, f := range ins {
				out[i] = f(m, si)
			}
			return out
		}
	}
	lift := func(in func(m *target.Machine) target.Inst) func(*target.Machine, translate.SegInfo) target.Inst {
		return func(m *target.Machine, _ translate.SegInfo) target.Inst { return in(m) }
	}
	return []ruleCase{
		// --- sp-relative guard-zone rule ---
		{name: "sp/guard-pos", ok: true,
			seq: seq(func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.OmniInt[14], g) })},
		{name: "sp/guard-neg", ok: true,
			seq: seq(func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.OmniInt[14], -g) })},
		{name: "sp/over-guard", ok: false, why: "store",
			seq: seq(func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.OmniInt[14], g+4) })},

		// --- absolute in-segment rule (no base register) ---
		{name: "abs/in-segment", ok: true,
			seq: seq(func(_ *target.Machine, si translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Sw, Rd: 2, Rs1: no, Rs2: no, Imm: int32(si.DataBase + 0x100)}
			})},
		{name: "abs/outside", ok: false, why: "store",
			seq: seq(func(_ *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Sw, Rd: 2, Rs1: no, Rs2: no, Imm: 0x1000}
			})},

		// --- masked-register store rule ---
		{name: "masked/based", ok: true, seq: seq(lift(mask), lift(rebase),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, 0) })},
		{name: "masked/based-guard-disp", ok: true, seq: seq(lift(mask), lift(rebase),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, g) })},
		{name: "masked/based-over-disp", ok: false, why: "store", seq: seq(lift(mask), lift(rebase),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, g+4) })},
		{name: "masked/unbased", ok: false, why: "store", seq: seq(lift(mask),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, 0) })},
		{name: "masked/fold-then-store", ok: true, seq: seq(lift(mask), lift(rebase),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return fold(m, -g) },
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, 0) })},
		{name: "masked/fold-stacking", ok: false, why: "store", seq: seq(lift(mask), lift(rebase),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return fold(m, g) },
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, g) })},
		{name: "masked/double-fold", ok: false, why: "store", seq: seq(lift(mask), lift(rebase),
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return fold(m, g) },
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return fold(m, g) },
			func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.SFIAddr, 0) })},
		{name: "masked/indexed", ok: true, arch: nonX86, seq: seq(lift(mask),
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Sw, Rd: 2, Rs1: m.SFIBase, Rs2: m.SFIAddr, Indexed: true}
			})},
		{name: "masked/indexed-unmasked", ok: false, why: "store", arch: nonX86, seq: seq(
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Sw, Rd: 2, Rs1: m.SFIBase, Rs2: m.SFIAddr, Indexed: true}
			})},

		// --- gp-relative rule ---
		{name: "gp/small-disp", ok: true, arch: nonX86,
			seq: seq(func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.GP, 0x100) })},
		// gp sits at base+0x8000; -0x9000 lands exactly on the window
		// edge (base minus one guard zone) and is still contained.
		{name: "gp/window-edge", ok: true, arch: nonX86,
			seq: seq(func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.GP, -0x9000) })},
		{name: "gp/outside-window", ok: false, why: "store", arch: nonX86,
			seq: seq(func(m *target.Machine, _ translate.SegInfo) target.Inst { return sw(m.GP, -0x9004) })},

		// --- indirect-branch rules ---
		{name: "jr/code-masked", ok: true, seq: func(m *target.Machine, si translate.SegInfo) []target.Inst {
			cm := target.Inst{Op: target.And, Rd: m.SFIAddr, Rs1: m.OmniInt[2], Rs2: m.CodeMask}
			if m.Arch == target.X86 {
				cm = target.Inst{Op: target.AndI, Rd: m.SFIAddr, Rs1: m.OmniInt[2], Rs2: no, Imm: 1}
			}
			return []target.Inst{cm, {Op: target.Jr, Rd: no, Rs1: m.SFIAddr, Rs2: no}}
		}},
		{name: "jr/unmasked", ok: false, why: "indirect", seq: seq(
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Jr, Rd: no, Rs1: m.OmniInt[2], Rs2: no}
			})},
		{name: "jr/known-const", ok: true, seq: seq(
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.MovI, Rd: m.OmniInt[2], Rs1: no, Rs2: no, Imm: 1}
			},
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Jr, Rd: no, Rs1: m.OmniInt[2], Rs2: no}
			})},
		{name: "jr/const-out-of-map", ok: false, why: "indirect", seq: seq(
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.MovI, Rd: m.OmniInt[2], Rs1: no, Rs2: no, Imm: 99}
			},
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Jr, Rd: no, Rs1: m.OmniInt[2], Rs2: no}
			})},
		{name: "jr/x86-over-wide-mask", ok: false, why: "indirect", arch: x86, seq: seq(
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.AndI, Rd: m.SFIAddr, Rs1: m.OmniInt[2], Rs2: no, Imm: 7}
			},
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.Jr, Rd: no, Rs1: m.SFIAddr, Rs2: no}
			})},

		// --- reserved-register write protection ---
		{name: "reserved/clobber-mask", ok: false, why: "reserved", arch: nonX86, seq: seq(
			func(m *target.Machine, _ translate.SegInfo) target.Inst {
				return target.Inst{Op: target.MovI, Rd: m.SFIMask, Rs1: no, Rs2: no, Imm: -1}
			})},
		{name: "reserved/rewrite-exact", ok: true, arch: nonX86, seq: func(m *target.Machine, si translate.SegInfo) []target.Inst {
			// Re-loading the pinned value through the constant idiom is
			// allowed (it is what the stub itself does).
			return []target.Inst{
				{Op: target.Lui, Rd: m.SFIBase, Rs1: no, Rs2: no, Imm: int32(si.DataBase >> 16)},
			}
		}},

		// --- cross-block reset: sandbox facts must not cross a leader ---
		{name: "leader/reset", ok: false, why: "store", seq: func(m *target.Machine, si translate.SegInfo) []target.Inst {
			// mask; rebase; beqz over the store; store is a branch
			// TARGET, so the facts are gone when it is reached linearly.
			no := target.NoReg
			out := []target.Inst{
				mask(m), rebase(m),
				{Op: target.Beqz, Rd: no, Rs1: m.OmniInt[2], Rs2: no}, // patched below
			}
			if m.HasDelaySlot {
				out = append(out, target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no})
			}
			st := sw(m.SFIAddr, 0)
			out = append(out, st)
			// The branch targets the store itself.
			out[2].Target = int32(len(out) - 1)
			return out
		}},
	}
}

// TestVerifyProofRules is the rule-by-rule baseline on all four
// machines. Branch targets inside case sequences are relative to the
// sequence and patched to absolute indices by the builder offset.
func TestVerifyProofRules(t *testing.T) {
	si := rulesSegInfo()
	for _, tc := range ruleCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range target.Machines() {
				if tc.arch != nil && !tc.arch(m) {
					continue
				}
				seq := tc.seq(m, si)
				// Rebase intra-sequence branch targets onto the final
				// program (the stub shifts everything).
				prog := buildRuleProg(m, si, nil)
				off := int32(len(prog.Code)) - 2 // before halt+trap
				for i := range seq {
					if seq[i].Op.IsBranch() || seq[i].Op == target.J {
						seq[i].Target += off
					}
				}
				prog = buildRuleProg(m, si, seq)
				p := sfi.PolicyFor(m, si)
				vs := sfi.Verify(prog, p)
				if tc.ok && len(vs) != 0 {
					t.Errorf("%s: expected accept, got %v", m.Name, vs)
				}
				if !tc.ok {
					if len(vs) == 0 {
						t.Errorf("%s: expected reject, program verified", m.Name)
					} else if tc.why != "" {
						found := false
						for _, v := range vs {
							if strings.Contains(strings.ToLower(v.Kind.String()+" "+v.Why), tc.why) {
								found = true
							}
						}
						if !found {
							t.Errorf("%s: no violation mentioning %q in %v", m.Name, tc.why, vs)
						}
					}
				}
			}
		})
	}
}

// TestCheckMessageFormat pins the per-kind totals in sfi.Check's error.
func TestCheckMessageFormat(t *testing.T) {
	m := target.Machines()[0]
	si := rulesSegInfo()
	no := target.NoReg
	seq := []target.Inst{
		{Op: target.Sw, Rd: 2, Rs1: m.OmniInt[2], Rs2: no, Imm: 0},
		{Op: target.Sw, Rd: 2, Rs1: m.OmniInt[2], Rs2: no, Imm: 4},
		{Op: target.Sw, Rd: 2, Rs1: m.OmniInt[2], Rs2: no, Imm: 8},
		{Op: target.Sw, Rd: 2, Rs1: m.OmniInt[2], Rs2: no, Imm: 12},
		{Op: target.Jr, Rd: no, Rs1: m.OmniInt[2], Rs2: no},
		{Op: target.MovI, Rd: m.SFIMask, Rs1: no, Rs2: no, Imm: 7},
	}
	err := sfi.Check(buildRuleProg(m, si, seq), m, si)
	if err == nil {
		t.Fatal("six-violation program passed")
	}
	msg := err.Error()
	for _, want := range []string{"6 violation(s)", "4 store", "1 indirect", "1 reserved-register", "..."} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	// Only the first three violations are spelled out.
	if n := strings.Count(msg, "inst "); n != 3 {
		t.Errorf("error should detail exactly 3 violations, found %d: %q", n, msg)
	}
}

// entryProbe puts the sandbox mask and rebase before Entry, a store
// through the sandbox register at Entry, and the dedicated-register
// stub after it. Control starts at Entry, where the sandbox register
// holds whatever the host left in it, so the sequence before Entry
// proves nothing about the store.
func entryProbe(m *target.Machine, si translate.SegInfo) *target.Program {
	no := target.NoReg
	A, R := m.SFIAddr, m.OmniInt[2]
	code := []target.Inst{
		{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask},
		{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase},
	}
	if m.Arch == target.X86 {
		code = []target.Inst{
			{Op: target.AndI, Rd: A, Rs1: R, Rs2: no, Imm: int32(si.DataMask)},
			{Op: target.OrI, Rd: A, Rs1: A, Rs2: no, Imm: int32(si.DataBase)},
		}
	}
	entry := int32(len(code))
	code = append(code, target.Inst{Op: target.Sw, Rd: R, Rs1: A, Rs2: no})
	code = loadPinned(code, m, si, 2)
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

// Entry is a fact boundary: a sandbox sequence that falls into Entry
// does not discharge a store at Entry. A wire-decoded program may carry
// any in-range Entry, so this is reachable from disk and from peers.
func TestEntryIsAFactBoundary(t *testing.T) {
	si := rulesSegInfo()
	for _, m := range target.Machines() {
		vs := sfi.Verify(entryProbe(m, si), sfi.PolicyFor(m, si))
		if len(vs) != 1 || vs[0].Kind != sfi.KindStore || vs[0].Index != 2 {
			t.Errorf("%s: want exactly the store at Entry rejected, got %v", m.Name, vs)
		}
	}
}
