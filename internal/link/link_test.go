package link

import (
	"encoding/binary"
	"strings"
	"testing"

	"omniware/internal/asm"
	"omniware/internal/ovm"
	"omniware/internal/wire"
)

func obj(t *testing.T, name, src string) *ovm.Object {
	t.Helper()
	o, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLinkTwoObjects(t *testing.T) {
	a := obj(t, "a.s", `
.text
.globl main
main:
	call helper
	lda r5, shared
	ldw r2, shared(r0)
	halt
`)
	b := obj(t, "b.s", `
.text
.globl helper
helper:
	ldi r1, 5
	ret
.data
.globl shared
shared:
	.word 77
`)
	m, err := Link([]*ovm.Object{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Entry != 0 {
		t.Errorf("entry %d", m.Entry)
	}
	// call helper resolves to b's text base (4 instructions in a).
	if m.Text[0].Op != ovm.JAL || m.Text[0].Imm2 != 4 {
		t.Errorf("call: %+v", m.Text[0])
	}
	// shared is in b's data at offset 0 of the combined image.
	sym, ok := ovm.Lookup(m.Symbols, "shared")
	if !ok {
		t.Fatal("shared missing")
	}
	if sym.Value < m.DataBase {
		t.Errorf("shared at %#x below base %#x", sym.Value, m.DataBase)
	}
	if m.Text[1].Imm != int32(sym.Value) || m.Text[2].Imm != int32(sym.Value) {
		t.Errorf("lda/ldw imm %#x/%#x want %#x", m.Text[1].Imm, m.Text[2].Imm, sym.Value)
	}
	off := sym.Value - m.DataBase
	if binary.LittleEndian.Uint32(m.Data[off:]) != 77 {
		t.Errorf("shared value: % x", m.Data[off:off+4])
	}
}

func TestLocalLabelsRebased(t *testing.T) {
	a := obj(t, "a.s", `
.text
.globl main
main:
	jal r15, f
	halt
`)
	b := obj(t, "b.s", `
.text
.globl f
f:
	ldi r1, 0
loop:
	addi r1, r1, 1
	blti r1, 3, loop
	ret
`)
	m, err := Link([]*ovm.Object{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// b's loop label is at global index 3 (2 from a + 1).
	if m.Text[4].Op != ovm.BLTI || m.Text[4].Imm2 != 3 {
		t.Errorf("rebased branch: %+v", m.Text[4])
	}
}

func TestBSSLayout(t *testing.T) {
	a := obj(t, "a.s", `
.text
.globl main
main:
	lda r1, abuf
	lda r2, bbuf
	halt
.bss
.globl abuf
abuf: .space 16
`)
	b := obj(t, "b.s", `
.bss
.globl bbuf
bbuf: .space 8
`)
	m, err := Link([]*ovm.Object{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aa, _ := ovm.Lookup(m.Symbols, "abuf")
	bb, _ := ovm.Lookup(m.Symbols, "bbuf")
	dataEnd := m.DataBase + uint32(len(m.Data))
	if aa.Value != dataEnd {
		t.Errorf("abuf at %#x, want %#x", aa.Value, dataEnd)
	}
	if bb.Value != dataEnd+16 {
		t.Errorf("bbuf at %#x, want %#x", bb.Value, dataEnd+16)
	}
	if m.BSSSize < 24 {
		t.Errorf("bss size %d", m.BSSSize)
	}
}

func TestDataRelocAcrossObjects(t *testing.T) {
	a := obj(t, "a.s", `
.text
.globl main
main:
	halt
.data
.globl ptr
ptr:
	.word target+4
`)
	b := obj(t, "b.s", `
.data
.globl target
target:
	.word 1, 2
`)
	m, err := Link([]*ovm.Object{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ptr, _ := ovm.Lookup(m.Symbols, "ptr")
	tgt, _ := ovm.Lookup(m.Symbols, "target")
	got := binary.LittleEndian.Uint32(m.Data[ptr.Value-m.DataBase:])
	if got != tgt.Value+4 {
		t.Errorf("ptr holds %#x, want %#x", got, tgt.Value+4)
	}
}

func TestFunctionPointerReloc(t *testing.T) {
	a := obj(t, "a.s", `
.text
.globl main
main:
	halt
.globl f
f:
	ret
.data
fp:
	.word f
`)
	m, err := Link([]*ovm.Object{a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Function pointers hold instruction indices.
	if got := binary.LittleEndian.Uint32(m.Data[:4]); got != 1 {
		t.Errorf("fp holds %d, want 1", got)
	}
}

func TestErrors(t *testing.T) {
	undef := obj(t, "u.s", ".text\n.globl main\nmain:\n\tcall missing\n\thalt\n")
	if _, err := Link([]*ovm.Object{undef}, Options{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("undefined symbol: %v", err)
	}
	d1 := obj(t, "d1.s", ".text\n.globl f\nf:\n\tret\n")
	d2 := obj(t, "d2.s", ".text\n.globl f\nf:\n\tret\n.globl main\nmain:\n\thalt\n")
	if _, err := Link([]*ovm.Object{d1, d2}, Options{}); err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Errorf("duplicate global: %v", err)
	}
	noMain := obj(t, "n.s", ".text\nf:\n\tret\n")
	if _, err := Link([]*ovm.Object{noMain}, Options{}); err == nil {
		t.Error("missing entry accepted")
	}
	if _, err := Link(nil, Options{}); err == nil {
		t.Error("empty link accepted")
	}
	branchData := obj(t, "bd.s", ".text\n.globl main\nmain:\n\tjmp x\n.data\nx: .word 0\n")
	if _, err := Link([]*ovm.Object{branchData}, Options{}); err == nil {
		t.Error("branch to data accepted")
	}
	if _, err := Link([]*ovm.Object{obj(t, "m.s", ".text\n.globl main\nmain:\n\thalt\n")}, Options{DataBase: 0x1001}); err == nil {
		t.Error("unaligned data base accepted")
	}
}

func TestEntrySelection(t *testing.T) {
	src := `
.text
.globl main
main:
	halt
.globl _start
_start:
	call main
	halt
`
	m, err := Link([]*ovm.Object{obj(t, "e.s", src)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Entry != 1 {
		t.Errorf("entry %d, want _start at 1", m.Entry)
	}
	m2, err := Link([]*ovm.Object{obj(t, "e.s", src)}, Options{Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Entry != 0 {
		t.Errorf("explicit entry %d", m2.Entry)
	}
	if _, err := Link([]*ovm.Object{obj(t, "e.s", src)}, Options{Entry: "nothere"}); err == nil {
		t.Error("bad explicit entry accepted")
	}
}

// The symbol table is part of a module's wire encoding, so linking is
// deterministic down to the content hash: the same objects, linked
// twenty times, are one module.
func TestLinkDeterministic(t *testing.T) {
	var src strings.Builder
	src.WriteString(".text\n.globl main\nmain:\n\thalt\n")
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega", "gamma", "delta", "kappa"} {
		src.WriteString(".globl " + name + "\n" + name + ":\n\tret\n")
	}
	a := obj(t, "a.s", src.String())
	b := obj(t, "b.s", ".data\n.globl shared\nshared:\n\t.word 1\n.globl other\nother:\n\t.word 2\n")
	want := ""
	for i := 0; i < 20; i++ {
		m, err := Link([]*ovm.Object{a, b}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := wire.HashModule(m)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("link %d hashed to %s, the first to %s", i, got, want)
		}
	}
}
