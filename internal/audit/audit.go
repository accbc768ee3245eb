// Package audit is the admission-time static analyzer for mobile
// programs: a whole-module pipeline that runs once per upload, before
// any job is accepted against the module, and produces a deterministic
// Report the serving plane can gate on. It discharges four obligations
// the SFI verifiers do not speak to:
//
//  1. an interprocedural call graph — direct calls resolved exactly,
//     indirect calls conservatively bounded by the module's
//     address-taken set (the same jump-table facts the translators and
//     absint use to bound indirect branches);
//  2. a worst-case stack-depth proof over that graph, with recursion
//     detected and reported as unbounded alongside the named cycle;
//  3. per-function and whole-module static instruction-cost upper
//     bounds on every target, priced by the per-machine cycle-latency
//     tables the schedulers already use;
//  4. a host-call capability manifest: the exact set of hostapi entry
//     points reachable from the module's entry.
//
// The analysis is over OmniVM text, so one audit serves all targets;
// only the cost weights are per-machine (derived by translating and
// attributing native latencies back through Inst.Src). Everything is a
// sound over-approximation under two documented discipline assumptions,
// shared with the translators: indirect transfers land on address-taken
// code entries, and `jr ra` is a return. A module that violates them
// cannot escape SFI (the omni-to-native map still confines it); it can
// only make this report conservative, never optimistic about
// capabilities — SYSCALL immediates are static, so the manifest covers
// every syscall instruction reachable under any control flow the
// address-taken bound admits.
package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"omniware/internal/core"
	"omniware/internal/hostapi"
	"omniware/internal/ovm"
	"omniware/internal/sfi/absint"
	"omniware/internal/target"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// Gate reasons: the closed set of ways a module fails admission.
// Metrics counters and HTTP error bodies use exactly these strings;
// they are pre-registered at zero like the quarantine reasons.
const (
	ReasonStack      = "stack"
	ReasonCost       = "cost"
	ReasonCapability = "capability"
	ReasonRecursion  = "recursion"
)

// GateReasons lists every gate reason, in reporting order.
var GateReasons = []string{ReasonStack, ReasonCost, ReasonCapability, ReasonRecursion}

// Report is the audit result for one module. It is canonical: analyzing
// the same module bytes always yields byte-identical JSON (functions
// sorted by entry, calls by site, capabilities and map keys sorted), so
// peers and the disk tier compare digests to detect tampering.
type Report struct {
	Hash  string `json:"hash"`  // wire.HashModule of the module
	Insts int    `json:"insts"` // OmniVM text length

	Functions []Function `json:"functions"`
	Calls     []CallEdge `json:"calls,omitempty"`

	// AddressTaken is the set of code entries reachable by indirect
	// transfer: values of CodePtrs words plus in-range lda immediates.
	AddressTaken []int32 `json:"address_taken,omitempty"`

	Stack StackBound `json:"stack"`

	// Cost maps target machine name to the whole-module bound (entry
	// function cost plus the translator's one-time stub cost).
	Cost map[string]CostBound `json:"cost"`

	// Capabilities is the manifest: sorted names of every hostapi entry
	// point reachable from the module entry.
	Capabilities []string `json:"capabilities"`

	// Targets records per-machine translation shape (native
	// instruction and basic-block counts, from the shared absint CFG).
	Targets map[string]TargetInfo `json:"targets"`
}

// Function is one call-graph node: a maximal region of text entered
// only at its first instruction.
type Function struct {
	Name  string `json:"name"`
	Entry int32  `json:"entry"`
	Insts int    `json:"insts"`
	// FrameBytes is the deepest stack extension the function itself
	// performs (excluding callees); -1 if not statically bounded.
	FrameBytes int64 `json:"frame_bytes"`
	// StackBytes is the deepest stack extension including callees;
	// -1 if unbounded (recursion or indiscipline).
	StackBytes int64 `json:"stack_bytes"`
	// Cost maps target name to this function's cycle bound including
	// callees; a target is absent when the bound does not exist
	// (the function or a callee loops or recurses).
	Cost map[string]uint64 `json:"cost,omitempty"`
	// Syscalls lists host calls made directly by this function.
	Syscalls []string `json:"syscalls,omitempty"`
}

// CallEdge is one call-graph edge. Tail marks transfers that continue
// on the caller's stack (jumps between functions); Indirect marks edges
// resolved through the address-taken bound rather than a direct target.
type CallEdge struct {
	Caller   string `json:"caller"`
	Callee   string `json:"callee"`
	Site     int32  `json:"site"`
	Indirect bool   `json:"indirect,omitempty"`
	Tail     bool   `json:"tail,omitempty"`
}

// StackBound is the whole-module worst-case stack verdict, from the
// entry point.
type StackBound struct {
	Bounded bool  `json:"bounded"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Reason, when unbounded: "recursion" (Cycle names it), "loop"
	// (a cycle grows the stack each iteration), "sp" (the stack
	// pointer is written in a form the analysis cannot track), or
	// "indirect" (an indirect transfer with an empty address-taken
	// bound).
	Reason string   `json:"reason,omitempty"`
	Cycle  []string `json:"cycle,omitempty"`
}

// CostBound is one target's whole-module cycle bound.
type CostBound struct {
	Bounded bool   `json:"bounded"`
	Cycles  uint64 `json:"cycles,omitempty"`
	// Reason, when unbounded: "loop", "recursion", or "indirect".
	Reason string `json:"reason,omitempty"`
}

// TargetInfo is the per-machine translation shape.
type TargetInfo struct {
	Insts  int `json:"insts"`
	Blocks int `json:"blocks"`
}

// Digest is the canonical identity of a report: hex sha256 over its
// canonical JSON. Peers ship it beside module bytes; receivers re-run
// the analysis and refuse on mismatch.
func (r *Report) Digest() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Report marshaling cannot fail: all fields are plain data.
		panic("audit: report marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Limits configures the admission gate. Zero caps disable that check;
// nil Capabilities allows everything.
type Limits struct {
	// MaxStackBytes caps the proven worst-case stack depth. When set,
	// a module whose depth is unbounded (for any reason) or exceeds
	// the cap violates "stack". Recursion is reported as "recursion"
	// whether or not a cap is set.
	MaxStackBytes int64
	// MaxCostCycles caps the whole-module static cycle bound on every
	// target. When set, an unbounded or over-cap target violates
	// "cost". Unset, looping modules (i.e. nearly all real programs)
	// pass.
	MaxCostCycles uint64
	// Capabilities, when non-nil, is the allow-list of hostapi entry
	// point names the module may reach; anything outside it violates
	// "capability".
	Capabilities []string
}

// Violation is one admission-gate failure.
type Violation struct {
	Reason string `json:"reason"` // one of GateReasons
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Reason + ": " + v.Detail }

// Violations evaluates the gate. The result is deterministic and
// ordered by GateReasons; empty means the module is admissible under l.
func (r *Report) Violations(l Limits) []Violation {
	var out []Violation
	if !r.Stack.Bounded && r.Stack.Reason != ReasonRecursion {
		if l.MaxStackBytes > 0 {
			out = append(out, Violation{ReasonStack,
				fmt.Sprintf("stack depth not statically bounded (%s)", r.Stack.Reason)})
		}
	} else if r.Stack.Bounded && l.MaxStackBytes > 0 && r.Stack.Bytes > l.MaxStackBytes {
		out = append(out, Violation{ReasonStack,
			fmt.Sprintf("stack bound %d bytes exceeds cap %d", r.Stack.Bytes, l.MaxStackBytes)})
	}
	if l.MaxCostCycles > 0 {
		for _, name := range sortedKeys(r.Cost) {
			c := r.Cost[name]
			if !c.Bounded {
				out = append(out, Violation{ReasonCost,
					fmt.Sprintf("%s: cycle cost not statically bounded (%s)", name, c.Reason)})
			} else if c.Cycles > l.MaxCostCycles {
				out = append(out, Violation{ReasonCost,
					fmt.Sprintf("%s: cost bound %d cycles exceeds cap %d", name, c.Cycles, l.MaxCostCycles)})
			}
		}
	}
	if l.Capabilities != nil {
		allowed := map[string]bool{}
		for _, c := range l.Capabilities {
			allowed[c] = true
		}
		var extra []string
		for _, c := range r.Capabilities {
			if !allowed[c] {
				extra = append(extra, c)
			}
		}
		if len(extra) > 0 {
			out = append(out, Violation{ReasonCapability,
				"module reaches host calls outside the allow-list: " + strings.Join(extra, ", ")})
		}
	}
	if r.Stack.Reason == ReasonRecursion {
		out = append(out, Violation{ReasonRecursion,
			"recursion cycle: " + strings.Join(r.Stack.Cycle, " -> ")})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return reasonRank(out[i].Reason) < reasonRank(out[j].Reason)
	})
	return out
}

func reasonRank(r string) int {
	for i, g := range GateReasons {
		if g == r {
			return i
		}
	}
	return len(GateReasons)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ---------------------------------------------------------------------
// Analysis.

// Analyze runs the full pipeline on mod for every registered target
// machine.
func Analyze(mod *ovm.Module) (*Report, error) {
	return AnalyzeTargets(mod, target.Machines())
}

// AnalyzeTargets is Analyze restricted to the given machines (tests use
// a subset; the serving plane audits all four so one report serves any
// exec request).
func AnalyzeTargets(mod *ovm.Module, machines []*target.Machine) (*Report, error) {
	if len(mod.Text) == 0 {
		return nil, fmt.Errorf("audit: empty module")
	}
	a := &analysis{mod: mod, n: len(mod.Text)}
	a.addressTaken()
	a.partition()
	for _, r := range a.regions {
		a.analyzeRegion(r)
	}
	a.condense()

	rep := &Report{
		Hash:         wire.HashModule(mod),
		Insts:        a.n,
		AddressTaken: a.addrTaken,
		Cost:         map[string]CostBound{},
		Targets:      map[string]TargetInfo{},
	}

	// Per-target cost weights: translate with the paper configuration
	// over the deterministic default segment geometry and attribute
	// native latencies back to OmniVM indices through Inst.Src.
	si := core.SegInfoFor(mod, core.RunConfig{})
	type targetCost struct {
		name   string
		weight []uint64 // per OmniVM instruction index
		stub   uint64   // Src == -1 (prologue / out-of-line stubs), charged once
	}
	var costs []targetCost
	for _, m := range machines {
		prog, err := translate.Translate(mod, m, si, translate.Paper(true))
		if err != nil {
			return nil, fmt.Errorf("audit: translate %s: %w", m.Name, err)
		}
		tc := targetCost{name: m.Name, weight: make([]uint64, a.n)}
		for i := range prog.Code {
			in := &prog.Code[i]
			lat := uint64(m.Latency[in.Op])
			if in.Src >= 0 && int(in.Src) < a.n {
				tc.weight[in.Src] += lat
			} else {
				tc.stub += lat
			}
		}
		costs = append(costs, tc)
		rep.Targets[m.Name] = TargetInfo{
			Insts:  len(prog.Code),
			Blocks: absint.BuildCFG(prog, m).Blocks(),
		}
	}

	// Stack bounds per region (condensed-DAG propagation), then the
	// module verdict from the entry region.
	a.solveStack()
	entry := a.regionOf[mod.Entry]
	rep.Stack = a.moduleStack(entry)

	// Reachability from entry (over call and tail edges) scopes the
	// capability manifest and the recursion verdict to code that can
	// actually run.
	reach := a.reachable(entry)

	caps := map[string]bool{}
	for ri, r := range a.regions {
		if !reach[ri] {
			continue
		}
		for num := range r.caps {
			caps[hostapi.SyscallName(num)] = true
		}
	}
	rep.Capabilities = make([]string, 0, len(caps))
	for c := range caps {
		rep.Capabilities = append(rep.Capabilities, c)
	}
	sort.Strings(rep.Capabilities)

	// Per-region, per-target cost solve; module bound = entry region
	// plus the one-time stub cost.
	for _, tc := range costs {
		bounds := a.solveCost(tc.weight)
		for ri, r := range a.regions {
			if bounds[ri].Bounded {
				if a.regions[ri].fn.Cost == nil {
					a.regions[ri].fn.Cost = map[string]uint64{}
				}
				r.fn.Cost[tc.name] = bounds[ri].Cycles
			}
		}
		mb := bounds[entry]
		if mb.Bounded {
			mb.Cycles += tc.stub
		}
		rep.Cost[tc.name] = mb
	}

	for _, r := range a.regions {
		rep.Functions = append(rep.Functions, r.fn)
	}
	sort.Slice(rep.Functions, func(i, j int) bool {
		return rep.Functions[i].Entry < rep.Functions[j].Entry
	})
	rep.Calls = a.callEdges()
	return rep, nil
}

// region is one call-graph node during analysis.
type region struct {
	idx        int
	entry, end int32 // [entry, end) in text
	fn         Function

	// Stack-discipline facts.
	spWild    bool    // sp written in an untrackable form, or negative cycle
	disp      []int64 // sp displacement at each offset (entry = 0); dispUnset if unreachable
	local     int64   // deepest stack extension within the region, bytes
	hasLoop   bool    // intra-region CFG cycle
	indirWild bool    // indirect transfer with empty address-taken bound

	calls []edge // JAL / JALR sites
	tails []edge // transfers continuing on the caller's stack
	caps  map[int]bool

	// Condensation results.
	scc        int
	sccRec     bool   // member of a recursive SCC
	sccLoop    bool   // member of a tail-cycle SCC
	sccGrow    bool   // member of a cycle that deepens the stack
	stack      int64  // solved stack bound including callees; -1 unbounded
	stackCycle []int  // recursion cycle (region indices), on the entry path
	stackWhy   string // reason when stack == -1
}

type edge struct {
	site     int32
	targets  []int // region indices
	depth    int64 // stack bytes already held at the site
	indirect bool
}

const dispUnset = int64(-1) << 62

type analysis struct {
	mod       *ovm.Module
	n         int
	addrTaken []int32
	entries   []int32
	regionOf  []int
	regions   []*region

	sccOf    []int
	sccOrder [][]int // SCCs in reverse topological order (callees first)
}

// addressTaken computes the indirect-transfer bound: instruction
// indices stored in CodePtrs data words plus in-range lda immediates
// (a relocated code symbol loaded into a register).
func (a *analysis) addressTaken() {
	set := map[int32]bool{}
	for _, off := range a.mod.CodePtrs {
		if int(off)+4 <= len(a.mod.Data) {
			v := int32(binary.LittleEndian.Uint32(a.mod.Data[off:]))
			if v >= 0 && int(v) < a.n {
				set[v] = true
			}
		}
	}
	for i := range a.mod.Text {
		in := &a.mod.Text[i]
		if in.Op == ovm.LDA && in.Imm >= 0 && int(in.Imm) < a.n {
			// Conservative: a data address that happens to alias a
			// text index only widens the bound.
			set[in.Imm] = true
		}
	}
	a.addrTaken = make([]int32, 0, len(set))
	for v := range set {
		a.addrTaken = append(a.addrTaken, v)
	}
	sort.Slice(a.addrTaken, func(i, j int) bool { return a.addrTaken[i] < a.addrTaken[j] })
}

// partition splits text into regions entered only at their first
// instruction: entries are the module entry, direct call targets, and
// the address-taken set; then, to fixpoint, any branch target that
// crosses a region boundary becomes an entry itself (so every
// interprocedural transfer lands on a region entry).
func (a *analysis) partition() {
	entry := map[int32]bool{}
	add := func(t int32) {
		if t >= 0 && int(t) < a.n {
			entry[t] = true
		}
	}
	add(a.mod.Entry)
	for _, t := range a.addrTaken {
		add(t)
	}
	for i := range a.mod.Text {
		if a.mod.Text[i].Op == ovm.JAL {
			add(a.mod.Text[i].Imm2)
		}
	}
	for {
		a.index(entry)
		changed := false
		for i := range a.mod.Text {
			in := &a.mod.Text[i]
			if !in.Op.IsBranch() && in.Op != ovm.JMP {
				continue
			}
			t := in.Imm2
			if t >= 0 && int(t) < a.n && a.regionOf[t] != a.regionOf[i] && !entry[t] {
				entry[t] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	a.regions = make([]*region, len(a.entries))
	for i, e := range a.entries {
		end := int32(a.n)
		if i+1 < len(a.entries) {
			end = a.entries[i+1]
		}
		a.regions[i] = &region{idx: i, entry: e, end: end}
	}
}

func (a *analysis) index(entry map[int32]bool) {
	a.entries = a.entries[:0]
	for e := range entry {
		a.entries = append(a.entries, e)
	}
	sort.Slice(a.entries, func(i, j int) bool { return a.entries[i] < a.entries[j] })
	a.regionOf = make([]int, a.n)
	ri := -1
	next := 0
	for i := 0; i < a.n; i++ {
		if next < len(a.entries) && a.entries[next] == int32(i) {
			ri++
			next++
		}
		a.regionOf[i] = ri // -1 for a text prefix before the first entry (unreachable)
	}
}

// name resolves the function name for a region entry: the text symbol
// at that index (globals first, then lexicographically smallest for
// determinism), else a synthetic fn@index.
func (a *analysis) name(entry int32) string {
	best := ""
	bestGlobal := false
	for _, s := range a.mod.Symbols {
		if s.Section != ovm.SecText || int32(s.Value) != entry || s.Name == "" {
			continue
		}
		if best == "" || (s.Global && !bestGlobal) || (s.Global == bestGlobal && s.Name < best) {
			best, bestGlobal = s.Name, s.Global
		}
	}
	if best == "" {
		return fmt.Sprintf("fn@%d", entry)
	}
	return best
}

// writesIntReg reports whether in writes integer register r (stores
// read Rd; FP formats write the FP file).
func writesIntReg(in *ovm.Inst, r uint8) bool {
	if in.Op.IsFP() && in.Op != ovm.CVTSW && in.Op != ovm.CVTDW && in.Op != ovm.MOVFW {
		return false
	}
	switch in.Op.Format() {
	case ovm.FmtRRR, ovm.FmtRRI, ovm.FmtRI, ovm.FmtRR, ovm.FmtLoad, ovm.FmtLoadX, ovm.FmtJal, ovm.FmtJalr:
		return in.Rd == r
	}
	return false
}

// analyzeRegion runs the intra-procedural pass: stack-pointer
// displacement to fixpoint (Bellman-Ford style, so a cycle that grows
// the stack is detected), loop detection, call/tail edge extraction,
// and the direct syscall set.
func (a *analysis) analyzeRegion(r *region) {
	text := a.mod.Text
	size := int(r.end - r.entry)
	r.caps = map[int]bool{}
	r.disp = make([]int64, size)
	for i := range r.disp {
		r.disp[i] = dispUnset
	}

	// delta(i): sp change from executing instruction i; wild if sp is
	// written in any form other than addi sp, sp, imm.
	delta := func(i int32) int64 {
		in := &text[i]
		if in.Op == ovm.ADDI && in.Rd == ovm.RSP && in.Rs1 == ovm.RSP {
			return int64(in.Imm)
		}
		if writesIntReg(in, ovm.RSP) {
			r.spWild = true
		}
		return 0
	}

	// Displacement fixpoint: disp[s] = min over predecessors of
	// disp[i] + delta(i), Bellman-Ford style. size passes suffice when
	// every cycle conserves the stack pointer; a relaxation on the
	// extra pass is a stack-growing cycle.
	r.disp[0] = 0
	for pass := 0; pass <= size; pass++ {
		changed := false
		for i := r.entry; i < r.end; i++ {
			if r.disp[i-r.entry] == dispUnset {
				continue
			}
			d := r.disp[i-r.entry] + delta(i)
			for _, s := range a.intraSuccs(r, i) {
				so := s - r.entry
				if r.disp[so] == dispUnset || d < r.disp[so] {
					r.disp[so] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if pass == size {
			r.spWild = true // negative (stack-growing) cycle
			return
		}
	}

	// Deepest point, edges, capabilities — over reachable offsets.
	for i := r.entry; i < r.end; i++ {
		d := r.disp[i-r.entry]
		if d == dispUnset {
			continue
		}
		in := &text[i]
		after := d + delta(i)
		if -after > r.local {
			r.local = -after
		}
		depth := max64(0, -d)
		switch in.Op {
		case ovm.JAL:
			t := in.Imm2
			if t >= 0 && int(t) < a.n && a.regionOf[t] >= 0 {
				r.calls = append(r.calls, edge{site: i, targets: []int{a.regionOf[t]}, depth: depth})
			}
		case ovm.JALR:
			r.calls = append(r.calls, edge{site: i, targets: a.indirectTargets(), depth: depth, indirect: true})
			if len(a.addrTaken) == 0 {
				r.indirWild = true
			}
		case ovm.JR:
			if in.Rs1 != ovm.RRA {
				r.tails = append(r.tails, edge{site: i, targets: a.indirectTargets(), depth: depth, indirect: true})
				if len(a.addrTaken) == 0 {
					r.indirWild = true
				}
			}
		case ovm.SYSCALL:
			r.caps[int(in.Imm)] = true
		}
		// Inter-region branch / jump / fall-through: a tail edge.
		if in.Op.IsBranch() || in.Op == ovm.JMP {
			t := in.Imm2
			if t >= 0 && int(t) < a.n && a.regionOf[t] != r.idx && a.regionOf[t] >= 0 {
				r.tails = append(r.tails, edge{site: i, targets: []int{a.regionOf[t]}, depth: depth})
			}
		}
		if i == r.end-1 && int(r.end) < a.n && !in.Op.IsTerminator() {
			// Falling off the region end continues at the next entry.
			r.tails = append(r.tails, edge{site: i, targets: []int{a.regionOf[r.end]}, depth: max64(0, -after)})
		}
	}

	// Intra-CFG cycle detection (for the cost bound): iterative DFS
	// with colors from the entry.
	color := make([]uint8, size) // 0 white, 1 gray, 2 black
	type frame struct {
		node int32
		next int
	}
	succs := make([][]int32, size)
	for i := r.entry; i < r.end; i++ {
		if r.disp[i-r.entry] != dispUnset {
			succs[i-r.entry] = a.intraSuccs(r, i)
		}
	}
	stack := []frame{{node: r.entry}}
	color[0] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ss := succs[f.node-r.entry]
		if f.next >= len(ss) {
			color[f.node-r.entry] = 2
			stack = stack[:len(stack)-1]
			continue
		}
		s := ss[f.next]
		f.next++
		switch color[s-r.entry] {
		case 0:
			color[s-r.entry] = 1
			stack = append(stack, frame{node: s})
		case 1:
			r.hasLoop = true
		}
	}

	r.fn = Function{
		Name:       a.name(r.entry),
		Entry:      r.entry,
		Insts:      size,
		FrameBytes: r.local,
	}
	if r.spWild {
		r.fn.FrameBytes = -1
	}
	for num := range r.caps {
		r.fn.Syscalls = append(r.fn.Syscalls, hostapi.SyscallName(num))
	}
	sort.Strings(r.fn.Syscalls)
}

func (a *analysis) indirectTargets() []int {
	out := make([]int, 0, len(a.addrTaken))
	for _, t := range a.addrTaken {
		if ri := a.regionOf[t]; ri >= 0 {
			out = append(out, ri)
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// condense runs Tarjan's SCC algorithm over the region graph (call and
// tail edges together) and classifies each SCC: recursive (contains a
// call edge), tail-cycle (cycle of jumps, no call), and stack-growing
// (some in-cycle edge departs with stack held).
func (a *analysis) condense() {
	n := len(a.regions)
	adj := make([][]int, n)
	for i, r := range a.regions {
		seen := map[int]bool{}
		for _, e := range append(append([]edge{}, r.calls...), r.tails...) {
			for _, t := range e.targets {
				if !seen[t] {
					seen[t] = true
					adj[i] = append(adj[i], t)
				}
			}
		}
		sort.Ints(adj[i])
	}

	a.sccOf = make([]int, n)
	for i := range a.sccOf {
		a.sccOf[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 && low[v] < low[call[len(call)-1].v] {
				low[call[len(call)-1].v] = low[v]
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					a.sccOf[w] = len(a.sccOrder)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				a.sccOrder = append(a.sccOrder, comp)
			}
		}
	}
	// Tarjan emits SCCs in reverse topological order already (a
	// component is completed only after everything it reaches).

	for _, comp := range a.sccOrder {
		in := map[int]bool{}
		for _, v := range comp {
			in[v] = true
		}
		cyclic := len(comp) > 1
		rec, grow := false, false
		for _, v := range comp {
			r := a.regions[v]
			for _, e := range r.calls {
				for _, t := range e.targets {
					if in[t] {
						cyclic, rec = true, true
					}
				}
			}
			for _, e := range r.tails {
				for _, t := range e.targets {
					if in[t] {
						cyclic = true
						if e.depth > 0 {
							grow = true
						}
					}
				}
			}
		}
		if !cyclic {
			continue
		}
		for _, v := range comp {
			a.regions[v].sccRec = a.regions[v].sccRec || rec
			a.regions[v].sccLoop = true
			a.regions[v].sccGrow = a.regions[v].sccGrow || grow
		}
	}
	for i, r := range a.regions {
		r.scc = a.sccOf[i]
	}
}

// solveStack computes each region's worst-case stack extension
// including callees, walking SCCs callees-first.
func (a *analysis) solveStack() {
	for _, comp := range a.sccOrder {
		// Unbounded classification first.
		unb := ""
		var cycle []int
		for _, v := range comp {
			r := a.regions[v]
			switch {
			case r.sccRec:
				unb = ReasonRecursion
				cycle = comp
			case r.spWild && unb == "":
				unb = "sp"
			case r.indirWild && unb == "":
				unb = "indirect"
			case r.sccGrow && unb == "":
				unb = "loop"
			}
		}
		if unb == "" {
			for _, v := range comp {
				r := a.regions[v]
				for _, e := range append(append([]edge{}, r.calls...), r.tails...) {
					for _, t := range e.targets {
						if a.sccOf[t] == a.sccOf[v] {
							continue
						}
						tr := a.regions[t]
						if tr.stack < 0 {
							unb = tr.stackWhy
							cycle = tr.stackCycle
						}
					}
				}
			}
		}
		if unb != "" {
			for _, v := range comp {
				a.regions[v].stack = -1
				a.regions[v].stackWhy = unb
				a.regions[v].stackCycle = cycle
			}
			continue
		}
		// Bounded: max over members of local depth and edge departures.
		var bound int64
		for _, v := range comp {
			r := a.regions[v]
			if r.local > bound {
				bound = r.local
			}
			for _, e := range append(append([]edge{}, r.calls...), r.tails...) {
				for _, t := range e.targets {
					if a.sccOf[t] == a.sccOf[v] {
						continue // in-cycle tail edges carry depth 0 here
					}
					if d := e.depth + a.regions[t].stack; d > bound {
						bound = d
					}
				}
			}
		}
		for _, v := range comp {
			a.regions[v].stack = bound
		}
	}
	for _, r := range a.regions {
		r.fn.StackBytes = r.stack
	}
}

func (a *analysis) moduleStack(entry int) StackBound {
	r := a.regions[entry]
	if r.stack >= 0 {
		return StackBound{Bounded: true, Bytes: r.stack}
	}
	sb := StackBound{Reason: r.stackWhy}
	for _, v := range r.stackCycle {
		sb.Cycle = append(sb.Cycle, a.regions[v].fn.Name)
	}
	if len(sb.Cycle) > 0 {
		// Close the cycle visually: f -> g -> f.
		sb.Cycle = append(sb.Cycle, sb.Cycle[0])
	}
	return sb
}

// solveCost computes each region's cycle bound under the given
// per-instruction weights: the longest acyclic path through the region
// plus every call site's worst callee plus the worst tail continuation.
// Each call site executes at most once per invocation (the region is a
// DAG when bounded), so summing sites is sound.
func (a *analysis) solveCost(weight []uint64) []CostBound {
	out := make([]CostBound, len(a.regions))
	for _, comp := range a.sccOrder {
		why := ""
		for _, v := range comp {
			r := a.regions[v]
			switch {
			case r.sccRec:
				why = ReasonRecursion
			case r.hasLoop || r.sccLoop:
				if why == "" {
					why = "loop"
				}
			case r.indirWild:
				if why == "" {
					why = "indirect"
				}
			}
		}
		if why == "" {
			for _, v := range comp {
				r := a.regions[v]
				for _, e := range append(append([]edge{}, r.calls...), r.tails...) {
					for _, t := range e.targets {
						if a.sccOf[t] != a.sccOf[v] && !out[t].Bounded {
							why = out[t].Reason
						}
					}
				}
			}
		}
		if why != "" {
			for _, v := range comp {
				out[v] = CostBound{Reason: why}
			}
			continue
		}
		// comp is a single region with no cycle: the longest path
		// through its DAG, by memoized post-order from the entry.
		for _, v := range comp {
			r := a.regions[v]
			best := make([]uint64, r.end-r.entry)
			done := make([]bool, r.end-r.entry)
			type cf struct {
				node int32
				next int
			}
			st := []cf{{node: r.entry}}
			for len(st) > 0 {
				f := &st[len(st)-1]
				ss := a.intraSuccs(r, f.node)
				if f.next < len(ss) {
					s := ss[f.next]
					f.next++
					if !done[s-r.entry] {
						st = append(st, cf{node: s})
					}
					continue
				}
				var m uint64
				for _, s := range ss {
					if c := best[s-r.entry]; c > m {
						m = c
					}
				}
				best[f.node-r.entry] = weight[f.node] + m
				done[f.node-r.entry] = true
				st = st[:len(st)-1]
			}
			total := best[0]
			for _, e := range r.calls {
				var m uint64
				for _, t := range e.targets {
					if out[t].Cycles > m {
						m = out[t].Cycles
					}
				}
				total += m
			}
			var tail uint64
			for _, e := range r.tails {
				for _, t := range e.targets {
					if a.sccOf[t] != a.sccOf[v] && out[t].Cycles > tail {
						tail = out[t].Cycles
					}
				}
			}
			out[v] = CostBound{Bounded: true, Cycles: total + tail}
		}
	}
	return out
}

// intraSuccs lists the intra-region successors of instruction i, for
// the region pass and the cost solver alike. Offsets stay inside the
// region by the partition fixpoint; anything else is an inter edge,
// which analyzeRegion records separately.
func (a *analysis) intraSuccs(r *region, i int32) []int32 {
	in := &a.mod.Text[i]
	var out []int32
	fall := func() {
		if i+1 < r.end {
			out = append(out, i+1)
		}
	}
	switch {
	case in.Op.IsBranch():
		if a.regionOf[in.Imm2] == r.idx {
			out = append(out, in.Imm2)
		}
		fall()
	case in.Op == ovm.JMP:
		if in.Imm2 >= 0 && int(in.Imm2) < a.n && a.regionOf[in.Imm2] == r.idx {
			out = append(out, in.Imm2)
		}
	case in.Op == ovm.JR, in.Op == ovm.HALT, in.Op == ovm.BREAK:
		// Return / indirect tail / stop: no intra successor.
	default:
		// JAL and JALR return to the next instruction.
		fall()
	}
	return out
}

// reachable returns the region set reachable from entry over call and
// tail edges.
func (a *analysis) reachable(entry int) []bool {
	out := make([]bool, len(a.regions))
	work := []int{entry}
	out[entry] = true
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		r := a.regions[v]
		for _, e := range append(append([]edge{}, r.calls...), r.tails...) {
			for _, t := range e.targets {
				if !out[t] {
					out[t] = true
					work = append(work, t)
				}
			}
		}
	}
	return out
}

// callEdges flattens the graph for the report, sorted by site. An
// indirect edge with k possible targets contributes k entries.
func (a *analysis) callEdges() []CallEdge {
	var out []CallEdge
	for _, r := range a.regions {
		emit := func(e edge, tail bool) {
			for _, t := range e.targets {
				out = append(out, CallEdge{
					Caller:   r.fn.Name,
					Callee:   a.regions[t].fn.Name,
					Site:     e.site,
					Indirect: e.indirect,
					Tail:     tail,
				})
			}
		}
		for _, e := range r.calls {
			emit(e, false)
		}
		for _, e := range r.tails {
			emit(e, true)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}
