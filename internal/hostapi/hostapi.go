// Package hostapi defines the host side of the Omniware runtime: the
// set of library functions a host program safely exports to dynamically
// loaded modules (memory management, console I/O, timing), the module
// memory layout, and the exception-delivery contract. Both the
// abstract-machine interpreter and the translated-code simulators call
// into this package through the SYSCALL gateway.
package hostapi

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"omniware/internal/ovm"
	"omniware/internal/seg"
)

// Sentinel errors for the two ways the host terminates a module run
// from the outside. Both executors (the OmniVM interpreter and the
// translated-code simulators) wrap these, and callers classify them
// with errors.Is — the serving layer's fault-containment accounting
// depends on the classification, so the errors are typed rather than
// matched by message text (which a rewording would silently break).
// core re-exports them as core.ErrBudget and core.ErrInterrupted.
var (
	// ErrBudget: the instruction budget (MaxSteps / Sim.MaxInsts) ran
	// out before the module finished.
	ErrBudget = errors.New("instruction budget exhausted")
	// ErrInterrupted: the Interrupt flag was set mid-run (the serving
	// layer's per-job deadline watchdog).
	ErrInterrupted = errors.New("run interrupted")
)

// Syscall numbers. Arguments are passed in r1..r4 (doubles in f1) and
// results return in r1 (f1 for doubles), matching the OmniVM calling
// convention.
const (
	SysExit       = 0 // exit(status r1)
	SysPutc       = 1 // putc(char r1)
	SysPuts       = 2 // puts(addr r1): NUL-terminated
	SysPrintInt   = 3 // print_int(v r1): signed decimal
	SysPrintUint  = 4 // print_uint(v r1)
	SysSbrk       = 5 // sbrk(incr r1) -> old break, or -1 on exhaustion
	SysClock      = 6 // clock() -> elapsed virtual cycles (low 32 bits)
	SysPrintFlt   = 7 // print_double(f1)
	SysWrite      = 8 // write(addr r1, len r2) -> bytes written
	SysSetHandler = 9 // set_handler(code index r1): access-violation hook
	NumSyscalls   = 10
)

// syscallNames indexes the host API by number; these names are the
// capability vocabulary the audit manifest and admission allow-lists
// speak, so they are part of the wire format and must stay stable.
var syscallNames = [NumSyscalls]string{
	SysExit:       "exit",
	SysPutc:       "putc",
	SysPuts:       "puts",
	SysPrintInt:   "print_int",
	SysPrintUint:  "print_uint",
	SysSbrk:       "sbrk",
	SysClock:      "clock",
	SysPrintFlt:   "print_flt",
	SysWrite:      "write",
	SysSetHandler: "set_handler",
}

// SyscallName names syscall num for reports and manifests. Unknown
// numbers (statically present in a module but refused at run time)
// render as "sys?N".
func SyscallName(num int) string {
	if num >= 0 && num < NumSyscalls {
		return syscallNames[num]
	}
	return fmt.Sprintf("sys?%d", num)
}

// SyscallByName inverts SyscallName for admission allow-lists;
// ok is false for names outside the host API.
func SyscallByName(name string) (int, bool) {
	for i, n := range syscallNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// CPU is the register-file view a syscall needs, implemented by the
// interpreter and by each target simulator (which maps OmniVM register
// numbers to its own state).
type CPU interface {
	IntReg(i int) uint32
	SetIntReg(i int, v uint32)
	FPReg(i int) float64
	SetFPReg(i int, v float64)
	Cycles() uint64
}

// Layout records where the loader placed the pieces of a module's data
// segment: [data | bss | heap ... | guard | stack].
type Layout struct {
	Seg       *seg.Segment
	HeapBase  uint32
	Brk       uint32 // current program break (moved by sbrk)
	HeapLimit uint32
	StackTop  uint32 // initial stack pointer
	// RegSave is a 256-byte area at the top of the data segment used by
	// targets that keep some OmniVM registers in memory (x86) and by
	// the simulators' syscall bridge.
	RegSave uint32
}

// DefaultHeapSize and DefaultStackSize size a module's data segment.
const (
	DefaultHeapSize  = 8 << 20
	DefaultStackSize = 1 << 20
	guardSize        = seg.PageSize
)

// Plan is the geometry Load will give a module's data segment,
// computable without touching an address space. The translation cache
// uses it to derive a module's SFI segment description (and hence its
// cache key) before any host exists.
type Plan struct {
	SegSize   uint32 // total data-segment size (a power of two)
	HeapBase  uint32
	HeapLimit uint32
	StackTop  uint32
	RegSave   uint32
}

// PlanLayout computes the layout Load(mem, m, heapSize, stackSize)
// will produce. It is deterministic in (module, heapSize, stackSize),
// which is what makes translations shareable across hosts: every host
// loading the same module with the same budgets sees the same segment
// geometry, so one SFI-checked translation fits them all.
func PlanLayout(m *ovm.Module, heapSize, stackSize uint32) Plan {
	if heapSize == 0 {
		heapSize = DefaultHeapSize
	}
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	static := uint32(len(m.Data)) + m.BSSSize
	total := static + heapSize + guardSize + stackSize
	// Round the segment to a power of two so SFI sandboxing can mask
	// addresses into it; the slack goes to the heap.
	p := uint32(seg.PageSize)
	for p < total {
		p <<= 1
	}
	total = p
	end := m.DataBase + total
	const regSaveSize = 256
	regSave := end - regSaveSize
	return Plan{
		SegSize:   total,
		HeapBase:  (m.DataBase + static + 7) &^ 7,
		HeapLimit: end - stackSize - guardSize,
		StackTop:  regSave - 16,
		RegSave:   regSave,
	}
}

// Load maps a module's data image into mem at the module's linked base
// and returns the layout. The code itself is not placed in data memory:
// OmniVM code addresses are instruction indices into the text section,
// and the (virtual or translated) code segment is execute-only by
// construction.
func Load(mem *seg.Memory, m *ovm.Module, heapSize, stackSize uint32) (*Layout, error) {
	p := PlanLayout(m, heapSize, stackSize)
	s, err := mem.Map("module-data", m.DataBase, p.SegSize, seg.Read|seg.Write)
	if err != nil {
		return nil, fmt.Errorf("hostapi: mapping module data: %w", err)
	}
	copy(s.Bytes(), m.Data)
	lay := &Layout{
		Seg:       s,
		HeapBase:  p.HeapBase,
		Brk:       p.HeapBase,
		HeapLimit: p.HeapLimit,
		StackTop:  p.StackTop,
		RegSave:   p.RegSave,
	}
	// The guard page between heap and stack stays unmapped in spirit:
	// revoke all access so runaway heap writes fault.
	if err := mem.Protect(lay.HeapLimit&^uint32(seg.PageSize-1), guardSize, 0); err != nil {
		return nil, fmt.Errorf("hostapi: guard page: %w", err)
	}
	return lay, nil
}

// LoadInto is Load against a caller-provided reusable segment (see
// seg.NewPooledSegment): the segment is recycled to pristine state
// under the module's identity, attached to mem, and given the data
// image — the allocation-free half of the serving layer's host pool.
// The segment's size must equal the module's planned geometry (the
// pool keys on it). Returns the layout by value so the caller can
// embed it without a heap allocation.
func LoadInto(mem *seg.Memory, s *seg.Segment, m *ovm.Module, heapSize, stackSize uint32) (Layout, error) {
	p := PlanLayout(m, heapSize, stackSize)
	if s.Size() != p.SegSize {
		return Layout{}, fmt.Errorf("hostapi: pooled segment size %#x does not fit module plan %#x", s.Size(), p.SegSize)
	}
	s.Recycle("module-data", m.DataBase, seg.Read|seg.Write)
	if err := mem.Attach(s); err != nil {
		return Layout{}, fmt.Errorf("hostapi: attaching module data: %w", err)
	}
	copy(s.Bytes(), m.Data)
	s.MarkDirty(0, uint32(len(m.Data)))
	lay := Layout{
		Seg:       s,
		HeapBase:  p.HeapBase,
		Brk:       p.HeapBase,
		HeapLimit: p.HeapLimit,
		StackTop:  p.StackTop,
		RegSave:   p.RegSave,
	}
	if err := mem.Protect(lay.HeapLimit&^uint32(seg.PageSize-1), guardSize, 0); err != nil {
		return Layout{}, fmt.Errorf("hostapi: guard page: %w", err)
	}
	return lay, nil
}

// Env is the per-module host environment. An Env — like the Memory
// and Layout it wraps — belongs to exactly one module instance and is
// not safe for concurrent use: a server running many jobs gives each
// job its own address space and Env (see internal/serve), sharing only
// immutable state (the Module and its cached translations) between
// them.
type Env struct {
	Mem    *seg.Memory
	Out    io.Writer
	Layout *Layout

	Exited   bool
	ExitCode int32

	// Handler is the module-registered access-violation handler
	// (instruction index), or -1.
	Handler int32

	// Stats
	SyscallCount [NumSyscalls]uint64

	num [20]byte // formats print_int/print_uint without allocating
}

// NewEnv creates an environment writing module output to out.
func NewEnv(mem *seg.Memory, lay *Layout, out io.Writer) *Env {
	return &Env{Mem: mem, Out: out, Layout: lay, Handler: -1}
}

// Reset reinitializes an environment in place for a new module run —
// the reuse path equivalent of NewEnv, clearing exit state, the
// violation handler, and the syscall counters without allocating.
func (e *Env) Reset(mem *seg.Memory, lay *Layout, out io.Writer) {
	*e = Env{Mem: mem, Out: out, Layout: lay, Handler: -1}
}

// Syscall dispatches host call num. It returns an error only for
// malformed requests that the host refuses (bad syscall number, bad
// buffer); module-visible failures are returned in r1 per the ABI.
func (e *Env) Syscall(num int32, cpu CPU) error {
	if num < 0 || num >= NumSyscalls {
		return fmt.Errorf("hostapi: bad syscall %d", num)
	}
	e.SyscallCount[num]++
	switch num {
	case SysExit:
		e.Exited = true
		e.ExitCode = int32(cpu.IntReg(ovm.RArg0))
	case SysPutc:
		fmt.Fprintf(e.Out, "%c", byte(cpu.IntReg(ovm.RArg0)))
	case SysPuts:
		s, f := e.Mem.ReadCString(cpu.IntReg(ovm.RArg0), 1<<20)
		if f != nil {
			return f
		}
		io.WriteString(e.Out, s)
	case SysPrintInt:
		e.Out.Write(strconv.AppendInt(e.num[:0], int64(int32(cpu.IntReg(ovm.RArg0))), 10))
	case SysPrintUint:
		e.Out.Write(strconv.AppendUint(e.num[:0], uint64(cpu.IntReg(ovm.RArg0)), 10))
	case SysSbrk:
		incr := int32(cpu.IntReg(ovm.RArg0))
		old := e.Layout.Brk
		nw := uint32(int64(old) + int64(incr))
		if nw < e.Layout.HeapBase || nw > e.Layout.HeapLimit {
			cpu.SetIntReg(ovm.RRet, 0xffffffff)
			return nil
		}
		e.Layout.Brk = nw
		cpu.SetIntReg(ovm.RRet, old)
	case SysClock:
		cpu.SetIntReg(ovm.RRet, uint32(cpu.Cycles()))
	case SysPrintFlt:
		fmt.Fprintf(e.Out, "%g", cpu.FPReg(1))
	case SysWrite:
		addr, n := cpu.IntReg(ovm.RArg0), cpu.IntReg(ovm.RArg1)
		if n > 1<<20 {
			return fmt.Errorf("hostapi: write length %d too large", n)
		}
		b, f := e.Mem.ReadBytes(addr, int(n))
		if f != nil {
			return f
		}
		e.Out.Write(b)
		cpu.SetIntReg(ovm.RRet, n)
	case SysSetHandler:
		e.Handler = int32(cpu.IntReg(ovm.RArg0))
	}
	return nil
}
