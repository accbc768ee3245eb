package target

// CFG is the block structure of a native program: the one definition
// of where control can enter other than by falling through, shared by
// both SFI verifiers (they reset or join facts there) and by the
// admission-time auditor (it counts blocks with it). It is computed
// from the code alone, never from metadata a Program carries about
// itself, so a tampered Program cannot claim a convenient structure.
//
// The graph is implicit: nodes are instruction indices, and Succs
// enumerates edges. Two facts are precomputed:
//
//   - Leaders marks every instruction control can reach other than by
//     falling through: direct branch/jump targets, the program entry,
//     and every omni-to-native map entry.
//   - O2NDest marks the subset entered through the omni-to-native map.
//     Indirect branches and exception delivery land only on those, so
//     an analysis may pin their entry states.
//
// DelaySlot records whether the machine transfers after the slot
// executes, which moves the branch-target edge from the branch to the
// instruction after it.
type CFG struct {
	Code      []Inst
	DelaySlot bool
	Leaders   []bool
	O2NDest   []bool
}

// BuildCFG computes the block structure of prog on m. Targets outside
// the code are ignored.
func BuildCFG(prog *Program, m *Machine) *CFG {
	n := len(prog.Code)
	g := &CFG{
		Code:      prog.Code,
		DelaySlot: m.HasDelaySlot,
		Leaders:   make([]bool, n),
		O2NDest:   make([]bool, n),
	}
	mark := func(t int32) bool {
		if t >= 0 && int(t) < n {
			g.Leaders[t] = true
			return true
		}
		return false
	}
	mark(prog.Entry)
	for i := range prog.Code {
		if in := &prog.Code[i]; in.Op.HasTarget() {
			mark(in.Target)
		}
	}
	for _, t := range prog.OmniToNative {
		if mark(t) {
			g.O2NDest[t] = true
		}
	}
	return g
}

// Succs appends instruction i's successor indices to buf and returns
// it. Fall-through edges are universal — even after an unconditional
// transfer — which is the shadow state unreachable code is analyzed
// under (mirroring the linear-scan verifier, so dead code cannot become
// a disagreement between the two verifiers). Delay-slot machines
// transfer after the slot executes, so the branch-target edge leaves
// the slot, not the branch. Jr/Jalr successors are the omni-to-native
// entries (see O2NDest); no explicit edges are emitted for them, nor
// for targets outside the code.
func (g *CFG) Succs(i int, buf []int32) []int32 {
	n := len(g.Code)
	if i+1 < n {
		buf = append(buf, int32(i+1))
	}
	j := i
	if g.DelaySlot {
		j = i - 1
	}
	if j >= 0 && g.Code[j].Op.HasTarget() {
		if t := g.Code[j].Target; t >= 0 && int(t) < n {
			buf = append(buf, t)
		}
	}
	return buf
}

// Blocks counts the leaders: the fact boundaries both verifiers report
// as Stats.Blocks and the auditor as a target's block count.
func (g *CFG) Blocks() int {
	n := 0
	for _, l := range g.Leaders {
		if l {
			n++
		}
	}
	return n
}
