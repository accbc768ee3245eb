// Package sfi implements the software-fault-isolation policy checker:
// an independent verifier that inspects translated native code and
// proves that every store and indirect branch is contained in the
// module's segments. The translator is trusted to *produce* safe code;
// this verifier means it does not have to be trusted to be correct —
// the same separation the original SFI work used between the
// sandboxing tool and its verifier.
//
// A second verifier with an independent structure (abstract
// interpretation over a real control-flow graph) lives in the absint
// subpackage; the two are raced differentially under fuzzing and
// exhaustive small-model enumeration so a blind spot in one is caught
// by the other. What is a function of the code and the policy alone is
// defined once and shared: the block structure (target.BuildCFG), the
// obligations (target.Inst.WritesMem, target.Op.IsIndirect), the guard
// zone (translate.GuardZone) and the dedicated registers' values
// (Policy.Pinned). Two copies of those facts do not check each other;
// they drift.
package sfi

import (
	"fmt"

	"omniware/internal/target"
	"omniware/internal/translate"
)

// Policy describes the containment the verifier checks.
type Policy struct {
	Machine  *target.Machine
	DataBase uint32
	DataMask uint32
	RegSave  uint32 // register-save area (absolute stores there are runtime-owned)
	GPValue  uint32 // global-pointer value held in Machine.GP (0 if unused)
}

// PolicyFor derives the verifier policy for a program translated for m
// against the segment description si — the canonical way to go from
// the translator's view of a module to the verifier's.
func PolicyFor(m *target.Machine, si translate.SegInfo) Policy {
	return Policy{
		Machine:  m,
		DataBase: si.DataBase,
		DataMask: si.DataMask,
		RegSave:  si.RegSave,
		GPValue:  si.GPValue,
	}
}

// Pinned returns the constants prog's dedicated registers must hold:
// the data mask, the segment base, the code mask (the omni-to-native
// map's index mask) and the global pointer, for those the machine
// has. Writes anywhere must produce exactly these values (or, inside
// the entry stub, the lui upper half on the way to them): trusting a
// register's *name* without pinning its *value* would let a module load
// a junk mask and then "sandbox" with it.
func (p Policy) Pinned(prog *target.Program) map[target.Reg]uint32 {
	m := p.Machine
	pinned := map[target.Reg]uint32{}
	pin := func(r target.Reg, v uint32) {
		if r != target.NoReg {
			pinned[r] = v
		}
	}
	pin(m.SFIMask, p.DataMask)
	pin(m.SFIBase, p.DataBase)
	if len(prog.OmniToNative) > 0 {
		pin(m.CodeMask, uint32(len(prog.OmniToNative)-1))
	} else {
		pin(m.CodeMask, 0)
	}
	pin(m.GP, p.GPValue)
	return pinned
}

// Stats counts the proof obligations one verification pass
// discharged, plus the sandboxing instructions the translator emitted
// to make them dischargeable — what the omnitrace verify span
// reports.
type Stats struct {
	Stores     int // store instructions proven contained
	Indirects  int // indirect branches proven contained
	SandboxOps int // static instructions attributed to SFI (CatSFI)
}

// Survey counts prog's proof obligations without verifying them.
func Survey(prog *target.Program) Stats {
	var st Stats
	for i := range prog.Code {
		in := &prog.Code[i]
		if in.WritesMem() {
			st.Stores++
		}
		if in.Op.IsIndirect() {
			st.Indirects++
		}
		if in.Cat == target.CatSFI {
			st.SandboxOps++
		}
	}
	return st
}

// CheckStats is Check plus the obligation counts — the counts are
// valid even when verification fails (they describe the program, not
// the proof).
func CheckStats(prog *target.Program, m *target.Machine, si translate.SegInfo) (Stats, error) {
	return Survey(prog), Check(prog, m, si)
}

// Check is the exported admission entry point used by the translation
// cache: it verifies prog against PolicyFor(m, si) and reports failure
// as an error with per-kind violation totals, naming the first few
// violations. A nil return means every store and indirect branch in
// prog is provably contained.
func Check(prog *target.Program, m *target.Machine, si translate.SegInfo) error {
	vs := Verify(prog, PolicyFor(m, si))
	if len(vs) == 0 {
		return nil
	}
	var stores, indirects, reserved int
	for _, v := range vs {
		switch v.Kind {
		case KindStore:
			stores++
		case KindIndirect:
			indirects++
		case KindReserved:
			reserved++
		}
	}
	const show = 3
	msg := fmt.Sprintf("sfi: %d violation(s) (%d store, %d indirect, %d reserved-register)",
		len(vs), stores, indirects, reserved)
	for i, v := range vs {
		if i == show {
			msg += "; ..."
			break
		}
		msg += "; " + v.String()
	}
	return fmt.Errorf("%s", msg)
}

// Kind classifies a violation for the per-kind totals Check reports.
type Kind uint8

const (
	KindStore    Kind = iota // store not provably contained
	KindIndirect             // indirect branch not provably contained
	KindReserved             // dedicated register illegally overwritten
)

func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindIndirect:
		return "indirect"
	case KindReserved:
		return "reserved-register"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Violation describes one unsafe instruction.
type Violation struct {
	Index int
	Inst  target.Inst
	Kind  Kind
	Why   string
}

func (v Violation) String() string {
	return fmt.Sprintf("inst %d: %s — %s", v.Index, v.Inst, v.Why)
}

// Verify scans prog and returns all store/indirect-branch instructions
// that are not provably contained. A nil result means the program
// satisfies the SFI policy.
//
// The proof rules mirror the translator's sandboxing idioms:
//
//   - a store through the stack pointer with a displacement within the
//     guard zone is safe (sp stays inside the segment by construction);
//   - a store to an absolute address inside the data segment is safe;
//   - a store through the dedicated sandbox register is safe when the
//     most recent write to that register (on every straight-line path,
//     approximated block-locally) was a masking operation;
//   - on PPC/SPARC, an indexed store off the segment-base register
//     whose index was just masked is safe;
//   - an indirect branch through the sandbox register is safe when the
//     register was just masked with the code mask, or through any
//     register holding a tracked constant below the code-map size;
//   - the dedicated registers (masks, segment base, global pointer)
//     may only ever be written with their expected constants, and the
//     by-name rules above engage only after the entry stub provably
//     establishes those constants.
//
// Fact boundaries: every leader of target.BuildCFG — any instruction
// control can enter other than by falling through: a direct
// branch/jump target, the program entry, or any entry of the
// omni-to-native map (indirect branches and exception delivery land
// only on those) — starts a fresh block with no inherited facts.
func Verify(prog *target.Program, p Policy) []Violation {
	const g = translate.GuardZone
	m := p.Machine
	var out []Violation
	bad := func(i int, in target.Inst, k Kind, why string) {
		out = append(out, Violation{Index: i, Inst: in, Kind: k, Why: why})
	}

	leaders := target.BuildCFG(prog, m).Leaders
	expected := p.Pinned(prog)

	// Scan the straight-line prefix at the entry point (the stub) with
	// constant tracking to learn which dedicated registers provably
	// hold their expected constants before any module code runs. The
	// write-protection rule below then keeps them there for the whole
	// program, so these are global facts.
	established := map[target.Reg]bool{}
	stubEnd := int(prog.Entry)
	{
		kc := map[target.Reg]uint32{}
		for i := int(prog.Entry); i >= 0 && i < len(prog.Code); i++ {
			in := &prog.Code[i]
			if in.Op.EndsRun() {
				stubEnd = i
				break
			}
			kcStep(kc, in)
			if exp, res := expected[in.Rd]; res {
				established[in.Rd] = kc[in.Rd] == exp
			}
			stubEnd = i + 1
		}
	}
	maskOK := m.SFIMask != target.NoReg && established[m.SFIMask]
	baseOK := m.SFIBase != target.NoReg && established[m.SFIBase]
	codeOK := m.CodeMask != target.NoReg && established[m.CodeMask]
	gpOK := m.GP != target.NoReg && p.GPValue != 0 && established[m.GP]

	// The sandbox register's abstract value. The masked and based
	// states are kept separate — a masked-but-unrebased value is an
	// offset in [0, DataMask], which is NOT a safe store address until
	// the or with the segment base — and a guard-zone displacement may
	// be folded in at most once on either side (the G states), so
	// displacements cannot stack beyond the guard.
	const (
		sbNone    = iota
		sbMasked  // SFIAddr ∈ [0, DataMask]
		sbMaskedG // SFIAddr ∈ [-G, DataMask+G] (guard fold used)
		sbBased   // SFIAddr ∈ [DataBase, DataBase+DataMask]
		sbBasedG  // SFIAddr ∈ [DataBase-G, DataBase+DataMask+G]
	)
	sb := sbNone
	codeSafe := false // SFIAddr holds a code-sandboxed value

	// Block-local constant tracking: registers holding values built by
	// lui/ori/movi/addi/mov sequences (used by absolute global stores
	// that fall outside the immediate range and were verified at
	// translation time, and by call link values).
	kc := map[target.Reg]uint32{}

	// isMaskOp: and with the data mask, starting a sandbox sequence.
	isMaskOp := func(in *target.Inst) bool {
		if in.Rd != m.SFIAddr {
			return false
		}
		if m.Arch == target.X86 {
			return in.Op == target.AndI && uint32(in.Imm) == p.DataMask
		}
		return in.Op == target.And && in.Rs2 == m.SFIMask && maskOK
	}
	// isBaseOp: or with the segment base, upgrading a masked offset to
	// an in-segment address.
	isBaseOp := func(in *target.Inst) bool {
		if in.Rd != m.SFIAddr {
			return false
		}
		if m.Arch == target.X86 {
			return in.Op == target.OrI && in.Rs1 == m.SFIAddr && uint32(in.Imm) == p.DataBase
		}
		return in.Op == target.Or && in.Rs1 == m.SFIAddr && in.Rs2 == m.SFIBase && baseOK
	}
	// isGuardFold: folding a guard-zone displacement into the sandbox
	// register (PPC/SPARC fold the store displacement before the
	// indexed store).
	// A zero displacement is a no-op and does not consume the single
	// allowed fold.
	isGuardFold := func(in *target.Inst) bool {
		return in.Rd == m.SFIAddr && in.Op == target.AddI && in.Rs1 == m.SFIAddr &&
			in.Imm != 0 && in.Imm >= -g && in.Imm <= g
	}
	// x86 has no dedicated code-mask register: the and-immediate bounds
	// the index iff the immediate is below the code-map size (the map
	// is what an indirect branch indexes, so any smaller mask is sound).
	x86CodeBound := func(in *target.Inst) bool {
		return in.Op == target.AndI && in.Imm >= 0 && int64(in.Imm) < int64(len(prog.OmniToNative))
	}
	isCodeMaskOp := func(in *target.Inst) bool {
		if in.Rd != m.SFIAddr {
			return false
		}
		if m.Arch == target.X86 {
			return x86CodeBound(in)
		}
		return in.Op == target.And && in.Rs2 == m.CodeMask && codeOK
	}

	spReg := m.OmniInt[14]

	inSeg := func(addr uint32) bool {
		return addr >= p.DataBase && addr <= p.DataBase+p.DataMask
	}
	// inWindow is the containment window: the segment plus its guard
	// zones. A store with an exactly-known address is contained there
	// even when it misses the segment proper — the same guarantee the
	// sandboxed-register rules give, which matters when a register is
	// both constant-known and sandbox-shaped.
	inWindow := func(a int64) bool {
		return a >= int64(p.DataBase)-g && a <= int64(p.DataBase)+int64(p.DataMask)+g
	}
	storeSafe := func(in *target.Inst) bool {
		// Absolute store (no base register): must land in the data
		// segment (the register-save area is inside it).
		base := in.Rs1
		if in.MemDst {
			base = target.NoReg // address is the immediate
		}
		if base == target.NoReg {
			return inSeg(uint32(in.Imm))
		}
		if in.Indexed {
			// PPC/SPARC indexed store off the segment base with a masked
			// (possibly guard-folded) index is the only sanctioned
			// indexed form. The simulator ignores Imm on indexed forms.
			return base == m.SFIBase && baseOK && in.Rs2 == m.SFIAddr &&
				(sb == sbMasked || sb == sbMaskedG)
		}
		// Stack-relative with a guarded displacement.
		if base == spReg && in.Imm >= -g && in.Imm <= g {
			return true
		}
		// Through the sandboxed register: a masked-and-rebased value
		// plus at most one guard-zone displacement (folded or in the
		// store itself, never both).
		if base == m.SFIAddr && sb == sbBased && in.Imm >= -g && in.Imm <= g {
			return true
		}
		if base == m.SFIAddr && sb == sbBasedG && in.Imm == 0 {
			return true
		}
		// Through the global pointer: gp sits a fixed offset into the
		// segment and the immediate field is bounded by the architecture.
		if base == m.GP && gpOK && inWindow(int64(uint32(p.GPValue)+uint32(in.Imm))) {
			return true
		}
		// Through a register holding a verified constant (lui/ori
		// absolute addressing of globals).
		if v, ok := kc[base]; ok && inWindow(int64(v+uint32(in.Imm))) {
			return true
		}
		return false
	}

	for i := range prog.Code {
		in := &prog.Code[i]
		if leaders[i] {
			sb, codeSafe = sbNone, false
			kc = map[target.Reg]uint32{}
		}

		// The dedicated registers must never be written by anything but
		// a constant idiom producing exactly the expected value (the lui
		// upper half is additionally allowed inside the entry stub,
		// where the completing ori follows before any transfer).
		if in.Rd != target.NoReg && !in.WritesMem() {
			if exp, res := expected[in.Rd]; res {
				inStub := i >= int(prog.Entry) && i < stubEnd
				if !constWriter(in) || !expectedWrite(kc, in, exp, inStub) {
					bad(i, *in, KindReserved, "reserved register overwritten")
				}
			}
		}

		if in.WritesMem() {
			if !storeSafe(in) {
				bad(i, *in, KindStore, "store not provably inside the data segment")
			}
		}
		if in.Op.IsIndirect() {
			// Returns and calls through the sandbox register, or through
			// a register holding a tracked constant below the code-map
			// size (the map bounds every indirect transfer).
			v, known := kc[in.Rs1]
			constSafe := known && int64(v) < int64(len(prog.OmniToNative))
			if !(in.Rs1 == m.SFIAddr && codeSafe) && !constSafe {
				bad(i, *in, KindIndirect, "indirect branch through unsandboxed register")
			}
		}

		// A syscall may rewrite any syscall-visible OmniVM register
		// image, so constant facts about those die here. The dedicated
		// SFI registers are not images, so the sandbox state survives.
		if in.Op == target.Syscall {
			for _, r := range m.OmniInt {
				if r != target.NoReg {
					delete(kc, r)
				}
			}
		}

		kcStep(kc, in)

		// Track the sandbox register.
		wrote := in.Rd == m.SFIAddr && !in.WritesMem() && in.Rd != target.NoReg
		switch {
		case isMaskOp(in):
			sb = sbMasked
			// On x86 the same and-immediate bounds a code index only
			// when the immediate is below the code-map size.
			codeSafe = m.Arch == target.X86 && x86CodeBound(in)
		case isBaseOp(in):
			if sb == sbMasked {
				sb = sbBased
			} else {
				sb = sbNone
			}
			codeSafe = false
		case isGuardFold(in):
			switch sb {
			case sbMasked:
				sb = sbMaskedG
			case sbBased:
				sb = sbBasedG
			default:
				sb = sbNone
			}
			codeSafe = false
		case isCodeMaskOp(in):
			codeSafe = true
			sb = sbNone
		case in.Op == target.AddI && in.Rd == m.SFIAddr && in.Rs1 == m.SFIAddr && in.Imm == 0:
			// Identity: the value is unchanged, so every fact survives.
		case wrote:
			sb, codeSafe = sbNone, false
		}
	}
	return out
}

// kcStep updates block-local constant knowledge for one instruction.
// Only value-exact transfers are tracked — every rule here mirrors
// precisely what the simulator computes for the same opcode.
func kcStep(kc map[target.Reg]uint32, in *target.Inst) {
	if in.Rd == target.NoReg || in.WritesMem() {
		return
	}
	if in.MemSrc {
		delete(kc, in.Rd)
		return
	}
	switch in.Op {
	case target.Lui:
		kc[in.Rd] = uint32(in.Imm) << 16
	case target.MovI:
		kc[in.Rd] = uint32(in.Imm)
	case target.OrI:
		if v, ok := kc[in.Rs1]; ok && in.Rd == in.Rs1 {
			kc[in.Rd] = v | uint32(in.Imm)
		} else {
			delete(kc, in.Rd)
		}
	case target.AddI, target.Lea:
		if v, ok := kc[in.Rs1]; ok {
			kc[in.Rd] = v + uint32(in.Imm)
		} else {
			delete(kc, in.Rd)
		}
	case target.AndI:
		// and x, 0 is 0 no matter what x holds — found by the
		// differential fuzzer as a disagreement with the abstract
		// interpreter, which folds it.
		if in.Imm == 0 {
			kc[in.Rd] = 0
		} else if v, ok := kc[in.Rs1]; ok {
			kc[in.Rd] = v & uint32(in.Imm)
		} else {
			delete(kc, in.Rd)
		}
	case target.Mov:
		if v, ok := kc[in.Rs1]; ok {
			kc[in.Rd] = v
		} else {
			delete(kc, in.Rd)
		}
	case target.Jal, target.Jalr:
		// The link value is a constant: the simulator writes the
		// immediate field (the OmniVM return address) to the link
		// register.
		kc[in.Rd] = uint32(in.Imm)
	default:
		delete(kc, in.Rd)
	}
}

// constWriter reports whether in writes a plain constant (the entry
// stub's way of initializing the dedicated registers).
func constWriter(in *target.Inst) bool {
	switch in.Op {
	case target.Lui, target.MovI:
		return true
	case target.OrI:
		return in.Rd == in.Rs1
	}
	return false
}

// expectedWrite reports whether a constWriter instruction leaves the
// dedicated register holding its expected constant exp. Inside the
// entry stub a lui of the upper half is also allowed (the completing
// ori follows before any control transfer, and the stub scan only
// marks the register established if it actually does).
func expectedWrite(kc map[target.Reg]uint32, in *target.Inst, exp uint32, inStub bool) bool {
	switch in.Op {
	case target.Lui:
		v := uint32(in.Imm) << 16
		return v == exp || (inStub && v == exp&0xffff0000)
	case target.MovI:
		return uint32(in.Imm) == exp
	case target.OrI:
		v, ok := kc[in.Rs1]
		return ok && in.Rd == in.Rs1 && v|uint32(in.Imm) == exp
	}
	return false
}
