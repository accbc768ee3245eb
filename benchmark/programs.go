package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/netserve"
	"omniware/internal/ovm"
	"omniware/internal/target"
	"omniware/internal/wire"
)

// trivload is the module whose run is ~20 simulated instructions, so
// a job on it is the fixed cost of serving and nothing else.
const (
	trivload    = "trivload"
	trivloadSrc = `int main(void) { return 0; }`
)

var (
	machines = target.Machines()
	ccOpts   = cc.Options{OptLevel: 2}
)

//go:embed expected.json
var expectedJSON []byte

// expected pins every exact count the benchmark reads: a change in any
// of them is a change in what the compiler, the translators or the
// simulators compute, never noise. Regenerate with
// `go test -run TestExpected -update` after a deliberate change.
type expected struct {
	// Programs: the fixed modules, by name, then by target.
	Programs map[string]expProgram `json:"programs"`
	// Gen: the synthetic modules of one seed, as a prefix of a given
	// length; checked when a run uses that seed and that many modules.
	Gen []expGen `json:"gen"`
	// ExecAllocsPerOp is core.exec_allocs_per_op.
	ExecAllocsPerOp float64 `json:"exec_allocs_per_op"`
}

type expProgram struct {
	OmniInsts int               `json:"omni_insts"`
	Targets   map[string]expRun `json:"targets"`
}

type expRun struct {
	NativeInsts int    `json:"native_insts"`
	SimInsts    uint64 `json:"sim_insts"`
	SimCycles   uint64 `json:"sim_cycles"`
}

type expGen struct {
	Seed      int64  `json:"seed"`
	Modules   int    `json:"modules"`
	SHA256    string `json:"sha256"` // of the concatenated OMW blobs
	OmniInsts int    `json:"omni_insts"`
	SimInsts  uint64 `json:"sim_insts"` // one run of every module on every target
	SimCycles uint64 `json:"sim_cycles"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// program is one module of a working set with its reference outcome.
type program struct {
	name string
	src  []core.SourceFile
	mod  *ovm.Module
	blob []byte // canonical OMW encoding
	hash string

	// The reference: one run on the OmniVM interpreter, which shares
	// nothing with the translators or the target simulators.
	exit   int32
	output string
	steps  uint64

	buildDur, interpDur time.Duration

	// want holds the simulated counts every reply for (this module,
	// target) must carry: filled from expected.json for the fixed
	// programs, learned from the first reply for synthetic ones — the
	// simulators are deterministic, so later replies must repeat it.
	want [4]struct{ insts, cycles atomic.Uint64 }
}

type progSpec struct {
	name string
	src  []core.SourceFile
}

func fixedSpec(name string) (progSpec, error) {
	if name == trivload {
		return progSpec{name, []core.SourceFile{{Name: "trivload.c", Src: trivloadSrc}}}, nil
	}
	src, err := bench.Sources(name, 1)
	return progSpec{name, src}, err
}

func genSpec(seed int64, index int) progSpec {
	name := fmt.Sprintf("gen%d_%04d", seed, index)
	return progSpec{name, []core.SourceFile{{Name: name + ".c", Src: genSource(seed, index)}}}
}

// buildProgram is the producer side plus the reference run: compile,
// link, encode, hash, interpret.
func buildProgram(s progSpec, exp *expected) (*program, error) {
	p := &program{name: s.name, src: s.src}
	t0 := time.Now()
	mod, err := core.BuildC(s.src, ccOpts)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", s.name, err)
	}
	p.buildDur = time.Since(t0)
	// The linker emits the global symbols in map order. Nothing reads
	// their order, but it is in the blob: sort them, so that one source
	// text is one blob and one content hash.
	sort.Slice(mod.Symbols, func(i, j int) bool {
		a, b := mod.Symbols[i], mod.Symbols[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Value < b.Value
	})
	p.mod = mod
	if p.blob, err = wire.EncodeModule(mod); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", s.name, err)
	}
	p.hash = wire.Hash(p.blob)

	h, err := core.NewHost(mod, core.RunConfig{})
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", s.name, err)
	}
	t0 = time.Now()
	res, err := h.RunInterp()
	p.interpDur = time.Since(t0)
	if err != nil || res.Faulted {
		return nil, fmt.Errorf("reference run of %s: err=%v fault=%q", s.name, err, res.Fault)
	}
	p.exit, p.output, p.steps = res.ExitCode, h.Output(), res.Steps

	if e, ok := exp.Programs[s.name]; ok {
		for ti, m := range machines {
			p.want[ti].insts.Store(e.Targets[m.Name].SimInsts)
			p.want[ti].cycles.Store(e.Targets[m.Name].SimCycles)
		}
	}
	return p, nil
}

// buildAll builds the working set on every core, in spec order.
func buildAll(specs []progSpec, exp *expected) ([]*program, error) {
	out := make([]*program, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				out[i], errs[i] = buildProgram(specs[i], exp)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check compares one exec reply with the reference. Any difference —
// transport error, shed, non-ok status, wrong exit code, output or
// simulated counts — is a failed operation.
func (p *program) check(ti int, resp *netserve.ExecResponse, err error) error {
	if err != nil {
		return fmt.Errorf("%s/%s: %w", p.name, machines[ti].Name, err)
	}
	if resp.Status != "ok" {
		return fmt.Errorf("%s/%s: status %q: %s%s", p.name, machines[ti].Name, resp.Status, resp.Err, resp.Fault)
	}
	if resp.Exit != p.exit || resp.Output != p.output {
		return fmt.Errorf("%s/%s: exit %d output %q, interpreter says exit %d output %q",
			p.name, machines[ti].Name, resp.Exit, resp.Output, p.exit, p.output)
	}
	w := &p.want[ti]
	w.insts.CompareAndSwap(0, resp.Insts)
	w.cycles.CompareAndSwap(0, resp.Cycles)
	if wi, wc := w.insts.Load(), w.cycles.Load(); resp.Insts != wi || resp.Cycles != wc {
		return fmt.Errorf("%s/%s: %d insts %d cycles, want %d insts %d cycles",
			p.name, machines[ti].Name, resp.Insts, resp.Cycles, wi, wc)
	}
	return nil
}
