package serve_test

import (
	"strings"
	"testing"
	"time"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/ovm"
	"omniware/internal/serve"
	"omniware/internal/target"
	"omniware/internal/translate"
)

func buildMod(t *testing.T, src string) *ovm.Module {
	t.Helper()
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// runAll submits jobs and returns their results in input order.
func runAll(s *serve.Server, jobs ...serve.Job) []serve.Result {
	chans := make([]<-chan serve.Result, len(jobs))
	for i, j := range jobs {
		chans[i] = s.Submit(j)
	}
	out := make([]serve.Result, len(jobs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

const goodSrc = `
int main(void) {
	int i, acc = 0;
	for (i = 0; i < 100; i++) acc += i;
	_print_int(acc);
	return acc & 0xff;
}`

// A wild load: SFI sandboxes stores, so an out-of-segment *read* is
// the canonical fault a sandboxed module can still commit.
const wildLoadSrc = `
int main(void) {
	int *p = (int *)0x70000000;
	return *p;
}`

const spinSrc = `int main(void){ for(;;); return 0; }`

func TestJobRunsAndCaches(t *testing.T) {
	mod := buildMod(t, goodSrc)
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()

	m := target.MIPSMachine()
	job := serve.Job{ID: "a", Mod: mod, Machine: m, Opt: translate.Paper(true)}
	r1 := <-s.Submit(job)
	if r1.Err != nil || r1.Faulted {
		t.Fatalf("job failed: %+v", r1)
	}
	if r1.Output != "4950" || r1.ExitCode != int32(4950&0xff) {
		t.Errorf("wrong answer: %+v", r1)
	}
	if r1.Cached {
		t.Error("first job reported a cache hit")
	}
	job.ID = "b"
	r2 := <-s.Submit(job)
	if r2.Err != nil || !r2.Cached {
		t.Errorf("second job not served from cache: %+v", r2)
	}
	snap := s.Snapshot()
	if snap.JobsRun != 2 || snap.Translations != 1 || snap.CacheMisses != 1 {
		t.Errorf("snapshot %+v", snap)
	}
	if snap.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain", snap.QueueDepth)
	}
}

func TestFaultContainment(t *testing.T) {
	good := buildMod(t, goodSrc)
	evil := buildMod(t, wildLoadSrc)
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()

	m := target.X86Machine()
	results := runAll(s,
		serve.Job{ID: "good-1", Mod: good, Machine: m, Opt: translate.Paper(true)},
		serve.Job{ID: "evil", Mod: evil, Machine: m, Opt: translate.Paper(true)},
		serve.Job{ID: "good-2", Mod: good, Machine: m, Opt: translate.Paper(true)},
	)
	if results[0].Err != nil || results[0].Faulted || results[2].Err != nil || results[2].Faulted {
		t.Errorf("good jobs disturbed: %+v %+v", results[0], results[2])
	}
	if !results[1].Faulted {
		t.Errorf("wild load did not fault its job: %+v", results[1])
	}
	snap := s.Snapshot()
	if snap.FaultsContained != 1 || snap.JobsFailed != 1 || snap.JobsRun != 2 {
		t.Errorf("snapshot %+v", snap)
	}
}

func TestBudgetExhaustionFailsOnlyItsJob(t *testing.T) {
	spin := buildMod(t, spinSrc)
	good := buildMod(t, goodSrc)
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()

	m := target.SPARCMachine()
	results := runAll(s,
		serve.Job{ID: "spin", Mod: spin, Machine: m, Opt: translate.Paper(true), MaxSteps: 10_000},
		serve.Job{ID: "good", Mod: good, Machine: m, Opt: translate.Paper(true)},
	)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "budget") {
		t.Errorf("spin job not stopped by budget: %+v", results[0])
	}
	if results[1].Err != nil || results[1].Faulted {
		t.Errorf("good job disturbed: %+v", results[1])
	}
	if snap := s.Snapshot(); snap.FaultsContained != 1 {
		t.Errorf("budget exhaustion not counted as contained: %+v", snap)
	}
}

func TestPerJobTimeout(t *testing.T) {
	spin := buildMod(t, spinSrc)
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()

	r := <-s.Submit(serve.Job{
		ID: "spin", Mod: spin, Machine: target.PPCMachine(),
		Opt: translate.Paper(true), Timeout: 50 * time.Millisecond,
	})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "interrupted") {
		t.Fatalf("timeout did not interrupt the job: %+v", r)
	}
	if snap := s.Snapshot(); snap.Timeouts != 1 {
		t.Errorf("timeout not counted: %+v", snap)
	}
}

func TestUnsandboxedJobBypassesCache(t *testing.T) {
	mod := buildMod(t, goodSrc)
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()

	job := serve.Job{ID: "raw", Mod: mod, Machine: target.MIPSMachine(), Opt: translate.Paper(false)}
	for i := 0; i < 2; i++ {
		if r := <-s.Submit(job); r.Err != nil || r.Cached {
			t.Fatalf("unsandboxed run %d: %+v", i, r)
		}
	}
	snap := s.Snapshot()
	if snap.Translations != 2 || snap.CacheMisses != 0 {
		t.Errorf("unsandboxed jobs touched the cache: %+v", snap)
	}
}

func TestMalformedJobRefused(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	if r := <-s.Submit(serve.Job{ID: "nil"}); r.Err == nil {
		t.Error("job without module/machine accepted")
	}
	mod := buildMod(t, goodSrc)
	r := <-s.Submit(serve.Job{
		ID: "panicsetup", Mod: mod, Machine: target.MIPSMachine(), Opt: translate.Paper(true),
		Setup: func(h *core.Host) error { var p *int; return fmeErr(*p) },
	})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "panic") {
		t.Errorf("panicking setup not contained: %+v", r)
	}
	if r2 := <-s.Submit(serve.Job{ID: "ok", Mod: mod, Machine: target.MIPSMachine(), Opt: translate.Paper(true)}); r2.Err != nil {
		t.Errorf("server did not survive a panicking setup: %+v", r2)
	}
}

// fmeErr exists so the nil dereference above is not optimizable away.
func fmeErr(int) error { return nil }
