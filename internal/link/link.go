// Package link implements the OmniVM linker. It combines relocatable
// objects into an executable module: text sections are concatenated
// (code addresses are instruction indices), data and bss are laid out in
// the module's data segment starting at DataBase, and all symbol
// references are resolved. Because symbols are resolved here, translated
// code pays no dynamic-linking cost at run time (§4.2 of the paper).
package link

import (
	"fmt"
	"sort"

	"omniware/internal/ovm"
)

// DefaultDataBase is the virtual address where a module's data segment
// is mapped unless overridden. The high bits form the segment identifier
// that SFI sandboxing forces onto unsafe store addresses.
const DefaultDataBase = 0x20000000

// Options configures a link.
type Options struct {
	Entry    string // entry symbol; default "_start", falling back to "main"
	DataBase uint32 // data segment base; default DefaultDataBase
}

type symLoc struct {
	obj int
	sym ovm.Symbol
}

// Link resolves objs into an executable module.
func Link(objs []*ovm.Object, opts Options) (*ovm.Module, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("link: no input objects")
	}
	if opts.DataBase == 0 {
		opts.DataBase = DefaultDataBase
	}
	if opts.DataBase%4096 != 0 {
		return nil, fmt.Errorf("link: data base %#x not page aligned", opts.DataBase)
	}

	// Layout.
	textBase := make([]int32, len(objs))
	dataOff := make([]uint32, len(objs))
	bssOff := make([]uint32, len(objs))
	var text []ovm.Inst
	var data []byte
	var bssSize uint32
	for i, o := range objs {
		textBase[i] = int32(len(text))
		text = append(text, o.Text...)
		// Keep every object's data 8-aligned so doubles stay aligned.
		for len(data)%8 != 0 {
			data = append(data, 0)
		}
		dataOff[i] = uint32(len(data))
		data = append(data, o.Data...)
	}
	dataLen := uint32(len(data))
	dataLen = (dataLen + 7) &^ 7
	for uint32(len(data)) < dataLen {
		data = append(data, 0)
	}
	for i, o := range objs {
		bssSize = (bssSize + 7) &^ 7
		bssOff[i] = bssSize
		bssSize += o.BSSSize
	}

	// Symbol tables.
	globals := map[string]symLoc{}
	locals := make([]map[string]ovm.Symbol, len(objs))
	for i, o := range objs {
		locals[i] = make(map[string]ovm.Symbol, len(o.Symbols))
		for _, s := range o.Symbols {
			if _, dup := locals[i][s.Name]; dup {
				return nil, fmt.Errorf("link: %s: symbol %q defined twice", o.Name, s.Name)
			}
			locals[i][s.Name] = s
			if s.Global {
				if prev, dup := globals[s.Name]; dup {
					return nil, fmt.Errorf("link: symbol %q defined in both %s and %s",
						s.Name, objs[prev.obj].Name, o.Name)
				}
				globals[s.Name] = symLoc{obj: i, sym: s}
			}
		}
	}

	// value computes the link-time value of a symbol for its section.
	value := func(owner int, s ovm.Symbol, addend int32) int32 {
		switch s.Section {
		case ovm.SecText:
			return textBase[owner] + int32(s.Value) + addend
		case ovm.SecData:
			return int32(opts.DataBase+dataOff[owner]+s.Value) + addend
		default: // bss
			return int32(opts.DataBase+dataLen+bssOff[owner]+s.Value) + addend
		}
	}

	resolve := func(obj int, r ovm.Reloc) (int32, ovm.Section, error) {
		if s, ok := locals[obj][r.Symbol]; ok {
			return value(obj, s, r.Addend), s.Section, nil
		}
		if loc, ok := globals[r.Symbol]; ok {
			return value(loc.obj, loc.sym, r.Addend), loc.sym.Section, nil
		}
		return 0, ovm.SecUndef, fmt.Errorf("link: %s: undefined symbol %q", objs[obj].Name, r.Symbol)
	}

	// Apply text relocations.
	for i, o := range objs {
		for _, r := range o.TextRel {
			if r.Offset >= uint32(len(o.Text)) {
				return nil, fmt.Errorf("link: %s: relocation offset %d out of range", o.Name, r.Offset)
			}
			v, sec, err := resolve(i, r)
			if err != nil {
				return nil, err
			}
			idx := textBase[i] + int32(r.Offset)
			in := &text[idx]
			if r.Field == ovm.FieldImm2 {
				if sec != ovm.SecText {
					return nil, fmt.Errorf("link: %s: branch to non-text symbol %q", o.Name, r.Symbol)
				}
				in.Imm2 = v
			} else {
				in.Imm = v
			}
		}
		// Local intra-object branch targets were emitted as relocations
		// too, so nothing else to adjust — but raw numeric targets
		// (assembler input with explicit indices) are object-relative and
		// must be rebased.
		for idx := textBase[i]; idx < textBase[i]+int32(len(o.Text)); idx++ {
			in := &text[idx]
			switch in.Op.Format() {
			case ovm.FmtBrRR, ovm.FmtBrRI, ovm.FmtJmp, ovm.FmtJal:
				if !wasRelocated(o, uint32(idx-textBase[i])) {
					in.Imm2 += textBase[i]
				}
			}
		}
	}

	// Apply data relocations, recording words that hold code indices.
	var codePtrs []uint32
	for i, o := range objs {
		for _, r := range o.DataRel {
			if r.Offset+4 > uint32(len(o.Data)) {
				return nil, fmt.Errorf("link: %s: data relocation at %d out of range", o.Name, r.Offset)
			}
			v, sec, err := resolve(i, r)
			if err != nil {
				return nil, err
			}
			off := dataOff[i] + r.Offset
			data[off] = byte(v)
			data[off+1] = byte(v >> 8)
			data[off+2] = byte(v >> 16)
			data[off+3] = byte(v >> 24)
			if sec == ovm.SecText {
				codePtrs = append(codePtrs, off)
			}
		}
	}

	// Entry point.
	entryName := opts.Entry
	var entry int32 = -1
	candidates := []string{entryName, "_start", "main"}
	if entryName == "" {
		candidates = candidates[1:]
	}
	for _, name := range candidates {
		if name == "" {
			continue
		}
		if loc, ok := globals[name]; ok && loc.sym.Section == ovm.SecText {
			entry = textBase[loc.obj] + int32(loc.sym.Value)
			break
		}
		if entryName != "" && name == entryName {
			return nil, fmt.Errorf("link: entry symbol %q not defined", entryName)
		}
	}
	if entry < 0 {
		return nil, fmt.Errorf("link: no entry point (_start or main)")
	}

	// Export every symbol, rebased. Globals keep their names; locals
	// whose names collide with an already-exported symbol are suffixed
	// with their object index (native back ends resolve per-file-unique
	// labels; anything else is best-effort debug info).
	var syms []ovm.Symbol
	exported := map[string]bool{}
	rebase := func(owner int, sym ovm.Symbol) ovm.Symbol {
		s := ovm.Symbol{Name: sym.Name, Section: sym.Section, Global: sym.Global}
		switch sym.Section {
		case ovm.SecText:
			s.Value = uint32(textBase[owner]) + sym.Value
		case ovm.SecData:
			s.Value = opts.DataBase + dataOff[owner] + sym.Value
		case ovm.SecBSS:
			s.Value = opts.DataBase + dataLen + bssOff[owner] + sym.Value
			s.Section = ovm.SecData // address space position, not image offset
		}
		return s
	}
	// Globals go out in name order, not map order: the symbol table is
	// part of the module's wire encoding, and one set of objects must
	// link to one content hash.
	names := make([]string, 0, len(globals))
	for name := range globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		loc := globals[name]
		syms = append(syms, rebase(loc.obj, loc.sym))
		exported[name] = true
	}
	for i, o := range objs {
		for _, sym := range o.Symbols {
			if sym.Global {
				continue
			}
			s := rebase(i, sym)
			if exported[s.Name] {
				s.Name = fmt.Sprintf("%s@%d", s.Name, i)
			}
			exported[s.Name] = true
			syms = append(syms, s)
		}
	}

	m := &ovm.Module{
		Text:     text,
		Data:     data,
		BSSSize:  (bssSize + 7) &^ 7,
		Entry:    entry,
		DataBase: opts.DataBase,
		Symbols:  syms,
		CodePtrs: codePtrs,
	}
	// Validate control-flow targets now so the loader can trust them.
	for i, in := range m.Text {
		switch in.Op.Format() {
		case ovm.FmtBrRR, ovm.FmtBrRI, ovm.FmtJmp, ovm.FmtJal:
			if in.Imm2 < 0 || in.Imm2 >= int32(len(m.Text)) {
				return nil, fmt.Errorf("link: instruction %d: control target %d out of range", i, in.Imm2)
			}
		}
	}
	return m, nil
}

// wasRelocated reports whether the instruction at object-relative index
// off had an Imm2 relocation (and therefore already holds a final code
// index).
func wasRelocated(o *ovm.Object, off uint32) bool {
	for _, r := range o.TextRel {
		if r.Offset == off && r.Field == ovm.FieldImm2 {
			return true
		}
	}
	return false
}
