package core

import (
	"fmt"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/target"
	"omniware/internal/translate"
)

func buildMod(t *testing.T, src string) *Host {
	t.Helper()
	mod, err := BuildC([]SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := AcquireHost(mod, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// A recycled address space must be indistinguishable from a fresh one:
// a module that scribbles over a large BSS region, then a second module
// that sums its own (C-guaranteed zero) BSS. If Release/Acquire failed
// to scrub the pages the writer dirtied, the reader sees the garbage.
func TestPooledHostScrubsBetweenJobs(t *testing.T) {
	writer := `
char buf[100000];
int main(void) {
	int i;
	for (i = 0; i < 100000; i++) buf[i] = 7;
	return buf[99999];
}`
	reader := `
char buf[100000];
int main(void) {
	int i, s = 0;
	for (i = 0; i < 100000; i++) s += buf[i];
	return s == 0 ? 42 : 1;
}`
	m := target.MIPSMachine()

	hw := buildMod(t, writer)
	res, _, err := hw.RunTranslated(m, translate.Paper(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 7 {
		t.Fatalf("writer exit %d, want 7", res.ExitCode)
	}
	hw.Release()

	hr := buildMod(t, reader)
	defer hr.Release()
	res, _, err = hr.RunTranslated(m, translate.Paper(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 42 {
		t.Fatalf("reader saw non-zero BSS after recycle: exit %d, want 42", res.ExitCode)
	}
}

// Repeated acquire/run/release cycles over the same module must agree
// with a fresh host run on every dimension a job reports: exit code,
// captured output, instruction count.
func TestPooledHostMatchesFreshHost(t *testing.T) {
	src := `
int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
int main(void) {
	_print_int(fib(15));
	return fib(10) & 0xff;
}`
	mod, err := BuildC([]SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := target.SPARCMachine()
	fresh, err := NewHost(mod, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, prog, err := fresh.RunTranslated(m, translate.Paper(true))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := fresh.Output()

	for i := 0; i < 3; i++ {
		h, err := AcquireHost(mod, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.RunProgram(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got.ExitCode != want.ExitCode || got.Insts != want.Insts {
			t.Fatalf("cycle %d: pooled run (exit %d, %d insts) != fresh (exit %d, %d insts)",
				i, got.ExitCode, got.Insts, want.ExitCode, want.Insts)
		}
		if h.Output() != wantOut {
			t.Fatalf("cycle %d: output %q, want %q", i, h.Output(), wantOut)
		}
		h.Release()
	}
}

// The warm-cache serving path — acquire a pooled host, run a cached
// translation, release — must not allocate at all. This is the
// regression guard behind omnimark's exact core.exec_allocs_per_op; any
// new allocation on this path shows up here before it shows up in a
// benchmark run.
func TestPooledExecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mod, err := BuildC([]SourceFile{{Name: "p.c", Src: "int main(void){ return 0; }"}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	mach := target.MIPSMachine()
	h0, err := NewHost(mod, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := h0.Translate(mach, translate.Paper(true))
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	avg := testing.AllocsPerRun(100, func() {
		h, err := AcquireHost(mod, RunConfig{})
		if err != nil {
			runErr = err
			return
		}
		res, err := h.RunProgram(mach, prog)
		h.Release()
		if err != nil {
			runErr = err
		} else if res.ExitCode != 0 {
			runErr = fmt.Errorf("exit %d", res.ExitCode)
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg != 0 {
		t.Fatalf("pooled execute path allocates %.2f allocs/op, want 0", avg)
	}
}

// HostData jobs cannot share pooled address spaces (the extra segment
// geometry is caller-chosen); AcquireHost must fall back to an
// unpooled host for them, and Release must be a no-op.
func TestAcquireHostHostDataFallback(t *testing.T) {
	mod, err := BuildC([]SourceFile{{Name: "p.c", Src: "int main(void){ return 0; }"}}, cc.Options{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	h, err := AcquireHost(mod, RunConfig{HostData: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if h.pool != nil {
		t.Fatal("HostData host came from the pool")
	}
	if h.HostSeg == nil {
		t.Fatal("host segment not mapped")
	}
	h.Release() // must not panic or pool the host
	if _, _, err := h.RunTranslated(target.X86Machine(), translate.Paper(true)); err != nil {
		t.Fatalf("host unusable after no-op Release: %v", err)
	}
}
