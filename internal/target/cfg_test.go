package target

import (
	"reflect"
	"testing"
)

// cfgProgram exercises every leader source and every way a target can
// be ignored: an out-of-range branch, jump and map entry, and a Jr
// whose Target field is set but which has no static target.
func cfgProgram() *Program {
	no := NoReg
	in := func(op Op, tgt int32) Inst { return Inst{Op: op, Rd: no, Rs1: no, Rs2: no, Target: tgt} }
	return &Program{
		Code: []Inst{
			0:  in(Nop, 0),
			1:  in(Beqz, 5),
			2:  in(Nop, 0),
			3:  in(J, 7),
			4:  in(Nop, 0),
			5:  in(Jal, 9),
			6:  in(Nop, 0),
			7:  in(Bcc, -1),
			8:  in(J, 100),
			9:  in(Jr, 3),
			10: in(Halt, 0),
		},
		Entry:        6,
		OmniToNative: []int32{10, 2, -3, 50},
	}
}

func cfgIndices(bs []bool) []int {
	var out []int
	for i, b := range bs {
		if b {
			out = append(out, i)
		}
	}
	return out
}

func TestCFGLeaders(t *testing.T) {
	for _, m := range Machines() {
		g := BuildCFG(cfgProgram(), m)
		// 5: Beqz, 7: J, 9: Jal, 6: Entry, 2 and 10: the map.
		if got, want := cfgIndices(g.Leaders), []int{2, 5, 6, 7, 9, 10}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: leaders %v, want %v", m.Name, got, want)
		}
		if got, want := cfgIndices(g.O2NDest), []int{2, 10}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: O2NDest %v, want %v", m.Name, got, want)
		}
		if got := g.Blocks(); got != 6 {
			t.Errorf("%s: Blocks() = %d, want 6", m.Name, got)
		}
		if g.DelaySlot != m.HasDelaySlot {
			t.Errorf("%s: DelaySlot = %v, want %v", m.Name, g.DelaySlot, m.HasDelaySlot)
		}
	}
}

// An out-of-range entry marks nothing.
func TestCFGEntryOutOfRange(t *testing.T) {
	prog := cfgProgram()
	prog.Entry = int32(len(prog.Code))
	g := BuildCFG(prog, Machines()[0])
	if got, want := cfgIndices(g.Leaders), []int{2, 5, 7, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("leaders %v, want %v", got, want)
	}
}

// On delay-slot machines the branch-target edge leaves the slot after
// the transfer; on the others it leaves the transfer itself. Fall-through
// edges are universal, and out-of-range targets and Jr get no edge.
func TestCFGSuccs(t *testing.T) {
	noSlot := map[int][]int32{
		0: {1}, 1: {2, 5}, 2: {3}, 3: {4, 7}, 4: {5}, 5: {6, 9},
		6: {7}, 7: {8}, 8: {9}, 9: {10}, 10: nil,
	}
	slot := map[int][]int32{
		0: {1}, 1: {2}, 2: {3, 5}, 3: {4}, 4: {5, 7}, 5: {6},
		6: {7, 9}, 7: {8}, 8: {9}, 9: {10}, 10: nil,
	}
	for _, m := range Machines() {
		want := noSlot
		if m.HasDelaySlot {
			want = slot
		}
		g := BuildCFG(cfgProgram(), m)
		for i := range g.Code {
			if got := g.Succs(i, nil); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: Succs(%d) = %v, want %v", m.Name, i, got, want[i])
			}
		}
	}
}
