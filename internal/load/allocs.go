package load

import (
	"fmt"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// MeasureAllocs runs the host-lifecycle allocation benchmarks
// in-process (testing.Benchmark, no test binary involved) and returns
// one stat per path. The measured unit is the serving layer's
// warm-cache execute path: the translation is already cached, so one
// op is exactly "stand up a sandboxed address space, run the program,
// tear it down" — the per-job cost the report's allocs section exists
// to pin down.
func MeasureAllocs() ([]AllocStat, error) {
	mod, err := core.BuildC([]core.SourceFile{{Name: "trivload.c", Src: builtins[TrivLoad]}}, cc.Options{OptLevel: 2})
	if err != nil {
		return nil, fmt.Errorf("load: allocs build: %w", err)
	}
	mach := target.ByName("mips")
	h0, err := core.NewHost(mod, core.RunConfig{})
	if err != nil {
		return nil, err
	}
	prog, err := h0.Translate(mach, translate.Paper(true))
	if err != nil {
		return nil, err
	}

	var stats []AllocStat
	var benchErr error
	add := func(name string, fn func() error) {
		if benchErr != nil {
			return
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					benchErr = fmt.Errorf("load: bench %s: %w", name, err)
					return
				}
			}
		})
		if benchErr != nil {
			return
		}
		stats = append(stats, AllocStat{
			Name:        name,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			NsPerOp:     res.NsPerOp(),
		})
	}

	// The baseline: every job pays a fresh address space, layout, env
	// and simulator.
	add("exec_fresh_host", func() error {
		h, err := core.NewHost(mod, core.RunConfig{})
		if err != nil {
			return err
		}
		res, err := h.RunProgram(mach, prog)
		if err != nil {
			return err
		}
		if res.ExitCode != 0 {
			return fmt.Errorf("exit %d", res.ExitCode)
		}
		return nil
	})

	// The serving path: a pooled address space, scrubbed and reloaded
	// per op. The acceptance bar is zero allocations per op.
	add("exec_pooled_host", func() error {
		h, err := core.AcquireHost(mod, core.RunConfig{})
		if err != nil {
			return err
		}
		res, err := h.RunProgram(mach, prog)
		h.Release()
		if err != nil {
			return err
		}
		if res.ExitCode != 0 {
			return fmt.Errorf("exit %d", res.ExitCode)
		}
		return nil
	})

	return stats, benchErr
}
