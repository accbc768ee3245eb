package serve_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"omniware/internal/serve"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// Close is idempotent: any number of calls, from any number of
// goroutines, and each one waits for the drain.
func TestCloseIdempotent(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	s.Close()
	s.Close() // second call must not panic on the closed channel

	s2 := serve.New(serve.Config{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2.Close()
		}()
	}
	wg.Wait()
}

// Submit after Close is refused softly: a Result with ErrClosed, no
// panic, nothing run.
func TestSubmitAfterCloseRefused(t *testing.T) {
	mod := buildMod(t, goodSrc)
	s := serve.New(serve.Config{Workers: 1})
	s.Close()

	r := <-s.Submit(serve.Job{ID: "late", Mod: mod, Machine: target.MIPSMachine(), Opt: translate.Paper(true)})
	if !errors.Is(r.Err, serve.ErrClosed) {
		t.Fatalf("post-close submit: %+v", r)
	}
	if ch, ok := s.TrySubmit(serve.Job{ID: "late2", Mod: mod, Machine: target.MIPSMachine(), Opt: translate.Paper(true)}); ok || ch != nil {
		t.Fatal("TrySubmit accepted a job after Close")
	}
	if snap := s.Snapshot(); snap.JobsSubmitted != 0 {
		t.Fatalf("refused jobs were counted: %+v", snap)
	}
}

// Submit racing Close: every submission either runs to completion or
// is refused with ErrClosed — none are lost, none panic.
func TestSubmitConcurrentWithClose(t *testing.T) {
	mod := buildMod(t, goodSrc)
	m := target.MIPSMachine()
	for round := 0; round < 10; round++ {
		s := serve.New(serve.Config{Workers: 2})
		const n = 16
		results := make(chan serve.Result, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results <- <-s.Submit(serve.Job{ID: "race", Mod: mod, Machine: m, Opt: translate.Paper(true)})
			}()
		}
		time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		s.Close()
		wg.Wait()
		close(results)
		var ran, refused int
		for r := range results {
			switch {
			case r.Err == nil:
				ran++
				if r.ExitCode != int32(4950&0xff) {
					t.Fatalf("raced job computed wrong answer: %+v", r)
				}
			case errors.Is(r.Err, serve.ErrClosed):
				refused++
			default:
				t.Fatalf("raced job failed oddly: %v", r.Err)
			}
		}
		if ran+refused != n {
			t.Fatalf("round %d: %d ran + %d refused != %d", round, ran, refused, n)
		}
	}
}

// TrySubmit sheds when the queue is full and reports the job it did
// accept faithfully.
func TestTrySubmitShedsWhenFull(t *testing.T) {
	spin := buildMod(t, spinSrc)
	mod := buildMod(t, goodSrc)
	m := target.MIPSMachine()
	s := serve.New(serve.Config{Workers: 1, QueueCap: 1})
	defer s.Close()

	// One spinner occupies the run slot, one fills the queue; both are
	// deadline-bounded so Close can finish. Once both are accepted the
	// pool is exactly saturated: Workers+QueueCap jobs admitted.
	spinJob := serve.Job{ID: "spin", Mod: spin, Machine: m, Opt: translate.Paper(true), Timeout: 2 * time.Second}
	var chans []<-chan serve.Result
	deadline := time.Now().Add(5 * time.Second)
	for len(chans) < 2 {
		if ch, ok := s.TrySubmit(spinJob); ok {
			chans = append(chans, ch)
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("spinners never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// The spinners trade the run slot at every poll; a parked spinner
	// still holds its admission. Probe only after they have run for
	// 20 ms and one has been parked, so the probe sees the pool in
	// steady state, not before the first poll.
	time.Sleep(20 * time.Millisecond)
	for s.Snapshot().JobsPreempted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the spinners never traded the run slot")
		}
		time.Sleep(time.Millisecond)
	}

	if _, ok := s.TrySubmit(serve.Job{ID: "extra", Mod: mod, Machine: m, Opt: translate.Paper(true)}); ok {
		t.Fatal("TrySubmit accepted a job into a saturated pool")
	}
	for _, ch := range chans {
		if r := <-ch; r.Err == nil || !strings.Contains(r.Err.Error(), "interrupted") {
			t.Fatalf("spinner outcome: %+v", r)
		}
	}
	// Capacity freed: the pool accepts work again.
	ch, ok := s.TrySubmit(serve.Job{ID: "after", Mod: mod, Machine: m, Opt: translate.Paper(true)})
	if !ok {
		t.Fatal("TrySubmit refused with the pool idle")
	}
	if r := <-ch; r.Err != nil {
		t.Fatalf("post-saturation job: %v", r.Err)
	}
}
