// Package seg implements the OmniVM segmented virtual memory model: an
// address space shared by mutually distrustful modules and the host,
// divided into segments with host-imposed read/write/execute permissions
// at page granularity. Unauthorized accesses produce Faults, which the
// runtime delivers to the module as access-violation exceptions.
package seg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PageSize is the protection granularity within a segment.
const PageSize = 4096

// Perm is a permission bit set.
type Perm uint8

const (
	Read  Perm = 1 << iota
	Write      // store permission
	Exec       // instruction fetch / indirect branch target permission
)

func (p Perm) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access distinguishes the operation that caused a fault.
type Access uint8

const (
	AccLoad Access = iota
	AccStore
	AccFetch
)

func (a Access) String() string {
	switch a {
	case AccLoad:
		return "load"
	case AccStore:
		return "store"
	case AccFetch:
		return "fetch"
	}
	return "access"
}

// FaultKind classifies memory faults.
type FaultKind uint8

const (
	FaultUnmapped  FaultKind = iota // no segment covers the address
	FaultProt                       // segment exists but permission denied
	FaultUnaligned                  // address not aligned to access size
)

// Fault describes a failed memory access. It implements error.
type Fault struct {
	Kind FaultKind
	Acc  Access
	Addr uint32
	Size int
}

func (f *Fault) Error() string {
	var k string
	switch f.Kind {
	case FaultUnmapped:
		k = "unmapped address"
	case FaultProt:
		k = "access violation"
	case FaultUnaligned:
		k = "unaligned access"
	}
	return fmt.Sprintf("seg: %s: %d-byte %s at %#x", k, f.Size, f.Acc, f.Addr)
}

// Segment is a contiguous region of the address space.
type Segment struct {
	Name  string
	Base  uint32
	data  []byte
	perms []Perm // one per page

	// dirty, when non-nil, tracks pages written since the last Recycle
	// (one bit per page). Reusable segments carry it so Recycle can
	// restore the all-zero guarantee by clearing only the pages a run
	// actually touched instead of the whole (multi-megabyte) segment.
	// Ordinary segments leave it nil and pay nothing beyond the check.
	dirty []uint64
}

// Size returns the segment length in bytes.
func (s *Segment) Size() uint32 { return uint32(len(s.data)) }

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Base + s.Size() }

// Bytes exposes the backing store (host-side access, not permission
// checked; the host owns the address space). A writer mutating a
// reusable segment through this escape hatch must report the range
// with MarkDirty, or Recycle cannot restore the zero guarantee.
func (s *Segment) Bytes() []byte { return s.data }

// MarkDirty records that [off, off+n) was written outside the
// permission-checked store path. No-op on ordinary segments.
func (s *Segment) MarkDirty(off, n uint32) {
	if s.dirty == nil || n == 0 {
		return
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for p := first; p <= last; p++ {
		s.dirty[p/64] |= 1 << (p % 64)
	}
}

// NewPooledSegment creates an unattached, dirty-tracked segment for
// reuse across address spaces (the serving layer's host pool). The
// returned segment is pristine: all-zero data, uniform perms.
func NewPooledSegment(name string, base, size uint32, perms Perm) (*Segment, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("seg: pooled segment %q size %#x not a page multiple", name, size)
	}
	if base%PageSize != 0 {
		return nil, fmt.Errorf("seg: pooled segment %q base %#x not page aligned", name, base)
	}
	pages := size / PageSize
	s := &Segment{
		Name:  name,
		Base:  base,
		data:  make([]byte, size),
		perms: make([]Perm, pages),
		dirty: make([]uint64, (pages+63)/64),
	}
	fill(s.perms, perms)
	return s, nil
}

// Recycle restores a dirty-tracked segment to pristine state under a
// possibly new identity: every page written since the last Recycle
// (or creation) is zeroed, permissions are reset uniformly, and the
// name/base are updated. The segment must not be attached to any
// Memory when recycled. Allocation-free.
func (s *Segment) Recycle(name string, base uint32, perms Perm) {
	for w, word := range s.dirty {
		for word != 0 {
			p := uint32(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			clear(s.data[p*PageSize : (p+1)*PageSize])
		}
		s.dirty[w] = 0
	}
	fill(s.perms, perms)
	s.Name, s.Base = name, base
}

// fill sets every page's permissions to p. Doubling copies, because
// a pooled segment's thousands of pages are reset on every job and a
// byte loop over them was the larger part of standing a job up.
func fill(ps []Perm, p Perm) {
	if len(ps) == 0 {
		return
	}
	ps[0] = p
	for n := 1; n < len(ps); n *= 2 {
		copy(ps[n:], ps[:n])
	}
}

// Memory is a segmented address space. The zero value is empty; add
// segments with Map.
type Memory struct {
	segs []*Segment // sorted by Base

	// win is the segment the last checked access resolved to, so that
	// the next access to it — nearly every access a module makes lands
	// in its one data segment — skips the binary search. It describes a
	// segment mapped in this Memory or nothing: Unmap and Reset empty
	// it, and Map and Attach cannot overlap it. It copies the slices,
	// not their contents, so Protect takes effect on the next access.
	win window
}

// window is one segment's geometry and backing store.
type window struct {
	base  uint32
	data  []byte
	perms []Perm
	dirty []uint64
}

// span returns the n bytes at addr (n a power of two no larger than a
// page) if the access is aligned, inside the window, and its page
// grants need; nil otherwise. A store marks its page dirty.
func (w *window) span(addr, n uint32, need Perm) []byte {
	off := addr - w.base
	if addr&(n-1) != 0 || off >= uint32(len(w.data)) {
		return nil
	}
	page := off / PageSize
	if w.perms[page]&need == 0 {
		return nil
	}
	if need == Write && w.dirty != nil {
		w.dirty[page/64] |= 1 << (page % 64)
	}
	return w.data[off : off+n]
}

// LoadSpan and StoreSpan are the executor's inline fast path: the n
// bytes (1, 2, 4 or 8) at addr when the access is aligned, lies in the
// segment the last checked access resolved to, and its page grants
// the permission — nil otherwise. nil is not a fault: the caller falls
// back to Span, which reports the exact Fault or resolves the new
// segment so the next access hits. StoreSpan marks the page dirty, as
// Span does.
func (m *Memory) LoadSpan(addr, n uint32) []byte { return m.win.span(addr, n, Read) }

// StoreSpan: see LoadSpan.
func (m *Memory) StoreSpan(addr, n uint32) []byte { return m.win.span(addr, n, Write) }

// Map creates a segment of size bytes at base with uniform perms.
// Size is rounded up to a page multiple. Overlapping an existing
// segment is an error.
func (m *Memory) Map(name string, base, size uint32, perms Perm) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("seg: zero-size segment %q", name)
	}
	if base%PageSize != 0 {
		return nil, fmt.Errorf("seg: segment %q base %#x not page aligned", name, base)
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	if base+size < base {
		return nil, fmt.Errorf("seg: segment %q wraps the address space", name)
	}
	for _, s := range m.segs {
		if base < s.End() && s.Base < base+size {
			return nil, fmt.Errorf("seg: segment %q [%#x,%#x) overlaps %q", name, base, base+size, s.Name)
		}
	}
	pp := make([]Perm, size/PageSize)
	fill(pp, perms)
	s := &Segment{Name: name, Base: base, data: make([]byte, size), perms: pp}
	m.insert(s)
	return s, nil
}

// insert places s into the base-sorted segment list (the caller has
// already checked overlap). Allocation-free once the list's capacity
// has grown to its working size.
func (m *Memory) insert(s *Segment) {
	i := len(m.segs)
	for i > 0 && m.segs[i-1].Base > s.Base {
		i--
	}
	m.segs = append(m.segs, nil)
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = s
}

// Attach maps an existing (typically pooled) segment into this
// address space, with the same overlap discipline as Map.
func (m *Memory) Attach(s *Segment) error {
	if s.Base%PageSize != 0 {
		return fmt.Errorf("seg: attach %q: base %#x not page aligned", s.Name, s.Base)
	}
	if s.Base+s.Size() < s.Base {
		return fmt.Errorf("seg: attach %q: segment wraps the address space", s.Name)
	}
	for _, o := range m.segs {
		if s.Base < o.End() && o.Base < s.Base+s.Size() {
			return fmt.Errorf("seg: attach %q [%#x,%#x) overlaps %q", s.Name, s.Base, s.Base+s.Size(), o.Name)
		}
	}
	m.insert(s)
	return nil
}

// Reset detaches every segment, leaving an empty address space. The
// segments themselves (and their contents) are untouched — this is
// the reuse path's "tear down the mapping, keep the backing store".
func (m *Memory) Reset() {
	for i := range m.segs {
		m.segs[i] = nil
	}
	m.segs = m.segs[:0]
	m.win = window{}
}

// Unmap removes the segment at base.
func (m *Memory) Unmap(base uint32) error {
	for i, s := range m.segs {
		if s.Base == base {
			m.segs = append(m.segs[:i], m.segs[i+1:]...)
			m.win = window{}
			return nil
		}
	}
	return fmt.Errorf("seg: no segment at %#x", base)
}

// Segments returns the mapped segments in address order.
func (m *Memory) Segments() []*Segment { return m.segs }

// Find returns the segment containing addr, or nil.
func (m *Memory) Find(addr uint32) *Segment {
	// Binary search over sorted bases.
	lo, hi := 0, len(m.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.segs[mid].Base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	s := m.segs[lo-1]
	if addr < s.End() {
		return s
	}
	return nil
}

// Protect changes permissions on the pages covering [addr, addr+size).
// The range must lie within one segment and be page aligned; this is the
// host API behind the paper's "host-imposed permissions on access to
// this address space".
func (m *Memory) Protect(addr, size uint32, perms Perm) error {
	s := m.Find(addr)
	if s == nil {
		return fmt.Errorf("seg: protect: no segment at %#x", addr)
	}
	if addr%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("seg: protect: range [%#x,+%#x) not page aligned", addr, size)
	}
	if addr+size > s.End() || addr+size < addr {
		return fmt.Errorf("seg: protect: range [%#x,+%#x) exceeds segment %q", addr, size, s.Name)
	}
	first := (addr - s.Base) / PageSize
	for i := uint32(0); i < size/PageSize; i++ {
		s.perms[first+i] = perms
	}
	return nil
}

// PermsAt returns the permissions of the page containing addr (0 if
// unmapped).
func (m *Memory) PermsAt(addr uint32) Perm {
	s := m.Find(addr)
	if s == nil {
		return 0
	}
	return s.perms[(addr-s.Base)/PageSize]
}

// Span validates an access of size bytes (1, 2, 4 or 8) at addr and
// returns the bytes it covers, or the Fault that refuses it. It is
// what every accessor below checks with, and the executor's fallback
// when its LoadSpan or StoreSpan misses.
func (m *Memory) Span(addr, size uint32, acc Access) ([]byte, *Fault) {
	need := Exec
	switch acc {
	case AccLoad:
		need = Read
	case AccStore:
		need = Write
	}
	if b := m.win.span(addr, size, need); b != nil {
		return b, nil
	}
	if addr%size != 0 {
		return nil, &Fault{Kind: FaultUnaligned, Acc: acc, Addr: addr, Size: int(size)}
	}
	s := m.Find(addr)
	if s == nil || addr+size > s.End() {
		return nil, &Fault{Kind: FaultUnmapped, Acc: acc, Addr: addr, Size: int(size)}
	}
	m.win = window{base: s.Base, data: s.data, perms: s.perms, dirty: s.dirty}
	// Aligned and in the segment, so only the page's permission can
	// refuse it now. With power-of-two sizes and alignment enforced,
	// an access never straddles a page: one page check suffices.
	if b := m.win.span(addr, size, need); b != nil {
		return b, nil
	}
	return nil, &Fault{Kind: FaultProt, Acc: acc, Addr: addr, Size: int(size)}
}

// LoadU8 loads a byte.
func (m *Memory) LoadU8(addr uint32) (uint8, *Fault) {
	b, f := m.Span(addr, 1, AccLoad)
	if f != nil {
		return 0, f
	}
	return b[0], nil
}

// LoadU16 loads a little-endian halfword.
func (m *Memory) LoadU16(addr uint32) (uint16, *Fault) {
	b, f := m.Span(addr, 2, AccLoad)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint16(b), nil
}

// LoadU32 loads a little-endian word.
func (m *Memory) LoadU32(addr uint32) (uint32, *Fault) {
	b, f := m.Span(addr, 4, AccLoad)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint32(b), nil
}

// LoadU64 loads a little-endian doubleword.
func (m *Memory) LoadU64(addr uint32) (uint64, *Fault) {
	b, f := m.Span(addr, 8, AccLoad)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(b), nil
}

// StoreU8 stores a byte.
func (m *Memory) StoreU8(addr uint32, v uint8) *Fault {
	b, f := m.Span(addr, 1, AccStore)
	if f != nil {
		return f
	}
	b[0] = v
	return nil
}

// StoreU16 stores a little-endian halfword.
func (m *Memory) StoreU16(addr uint32, v uint16) *Fault {
	b, f := m.Span(addr, 2, AccStore)
	if f != nil {
		return f
	}
	binary.LittleEndian.PutUint16(b, v)
	return nil
}

// StoreU32 stores a little-endian word.
func (m *Memory) StoreU32(addr uint32, v uint32) *Fault {
	b, f := m.Span(addr, 4, AccStore)
	if f != nil {
		return f
	}
	binary.LittleEndian.PutUint32(b, v)
	return nil
}

// StoreU64 stores a little-endian doubleword.
func (m *Memory) StoreU64(addr uint32, v uint64) *Fault {
	b, f := m.Span(addr, 8, AccStore)
	if f != nil {
		return f
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// CheckFetch validates that addr may be used as a code target (used by
// the indirect-branch path of interpreters; translated code uses SFI
// sandboxing instead).
func (m *Memory) CheckFetch(addr uint32) *Fault {
	_, f := m.Span(addr, 1, AccFetch)
	return f
}

// ReadBytes copies n bytes starting at addr, honoring read permission.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, f := m.LoadU8(addr + uint32(i))
		if f != nil {
			return nil, f
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes stores b starting at addr, honoring write permission.
func (m *Memory) WriteBytes(addr uint32, b []byte) *Fault {
	for i, v := range b {
		if f := m.StoreU8(addr+uint32(i), v); f != nil {
			return f
		}
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint32, max int) (string, *Fault) {
	var out []byte
	for i := 0; i < max; i++ {
		b, f := m.LoadU8(addr + uint32(i))
		if f != nil {
			return "", f
		}
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out), nil
}
