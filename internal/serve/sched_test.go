package serve_test

import (
	"sort"
	"testing"
	"time"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/serve"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

// longSrc runs for a few million simulated instructions, many polls'
// worth, and exits cleanly.
const longSrc = `
int main(void) {
	int i, acc = 0;
	for (i = 0; i < 100000; i++) acc += i ^ (acc >> 3);
	return acc & 0x7f;
}`

// interval is one park of a job, in absolute monotonic time: from the
// moment it gave up its run token to the moment one was handed back.
type interval struct{ from, to time.Time }

// parks returns the parked spans of a finished job's trace.
func parks(tr *trace.Trace) []interval {
	var out []interval
	for _, sp := range tr.Root.Find("execute").Children {
		if sp.Name == "parked" {
			from := tr.Begin.Add(time.Duration(sp.StartNs))
			out = append(out, interval{from, from.Add(time.Duration(sp.DurNs))})
		}
	}
	return out
}

func finished(r serve.Result) time.Time { return r.Trace.Begin.Add(r.Trace.Duration()) }

// shortStream submits up to n copies of short (n < 0: any number)
// until stop is closed, keeping the server's queue occupied (Submit
// blocks while it is full), and returns what it submitted once every
// result is in.
func shortStream(s *serve.Server, short serve.Job, n int, stop <-chan struct{}) func() []serve.Result {
	var chans []<-chan serve.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ; n != 0; n-- {
			select {
			case <-stop:
				return
			default:
			}
			chans = append(chans, s.Submit(short))
		}
	}()
	return func() []serve.Result {
		<-done
		out := make([]serve.Result, len(chans))
		for i, ch := range chans {
			out[i] = <-ch
		}
		return out
	}
}

// A short job does not wait for long ones to finish: with both run
// slots held by spinners, it starts at their next poll.
func TestShortJobPreemptsSpinners(t *testing.T) {
	spin := buildMod(t, spinSrc)
	good := buildMod(t, goodSrc)
	m := target.MIPSMachine()
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()

	spinJob := serve.Job{ID: "spin", Mod: spin, Machine: m, Opt: translate.Paper(true), Timeout: 500 * time.Millisecond}
	spinners := []<-chan serve.Result{s.Submit(spinJob), s.Submit(spinJob)}
	time.Sleep(20 * time.Millisecond) // both spinners are in the simulator

	r := <-s.Submit(serve.Job{ID: "short", Mod: good, Machine: m, Opt: translate.Paper(true)})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.QueueWait >= 20*time.Millisecond {
		t.Fatalf("short job waited %v behind two spinners", r.QueueWait)
	}
	for _, ch := range spinners {
		select {
		case sr := <-ch:
			t.Fatalf("spinner finished before the short job: %+v", sr)
		default:
		}
	}
	for _, ch := range spinners {
		<-ch
	}
	if snap := s.Snapshot(); snap.JobsPreempted == 0 {
		t.Fatalf("no preemption counted: %+v", snap)
	}
}

// Round-robin: a long job behind an endless stream of short ones still
// finishes, and every park it makes is FIFO — no job admitted after it
// parked finishes before it is resumed.
func TestParkedJobIsNotOvertaken(t *testing.T) {
	long := buildMod(t, longSrc)
	good := buildMod(t, goodSrc)
	m := target.SPARCMachine()
	s := serve.New(serve.Config{Workers: 1, QueueCap: 4})
	defer s.Close()

	longCh := s.Submit(serve.Job{ID: "long", Mod: long, Machine: m, Opt: translate.Paper(true)})
	stop := make(chan struct{})
	collect := shortStream(s, serve.Job{ID: "short", Mod: good, Machine: m, Opt: translate.Paper(true)}, -1, stop)
	var lr serve.Result
	select {
	case lr = <-longCh:
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("the long job starved behind the short ones")
	}
	close(stop)
	shorts := collect()

	if lr.Err != nil || lr.Faulted {
		t.Fatalf("long job: %+v", lr)
	}
	ps := parks(lr.Trace)
	if len(ps) == 0 {
		t.Fatal("the long job never parked behind a queue that was never empty")
	}
	for _, sr := range shorts {
		if sr.Err != nil {
			t.Fatalf("short job: %v", sr.Err)
		}
		if n := len(parks(sr.Trace)); n != 0 {
			t.Fatalf("a job shorter than one poll interval parked %d times", n)
		}
		for i, p := range ps {
			if sr.Trace.Begin.After(p.from) && !finished(sr).After(p.to) {
				t.Fatalf("a short job admitted %v into the long job's park %d finished %v before it resumed",
					sr.Trace.Begin.Sub(p.from), i, p.to.Sub(finished(sr)))
			}
		}
	}
}

// Long jobs take turns: with one run slot and every waiting job
// parked, a running job still trades places with the parked head, so
// neither of two long jobs runs to completion while the other waits.
func TestLongJobsTakeTurns(t *testing.T) {
	long := buildMod(t, longSrc)
	m := target.X86Machine()
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()

	job := serve.Job{ID: "long", Mod: long, Machine: m, Opt: translate.Paper(true)}
	a, b := s.Submit(job), s.Submit(job)
	for i, ch := range []<-chan serve.Result{a, b} {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(parks(r.Trace)) == 0 {
			t.Errorf("long job %d never gave the slot to the other", i)
		}
	}
}

// Preemption is invisible to the run: on every target, compress parked
// again and again behind short jobs counts exactly what it counts on a
// host with no scheduler at all.
func TestPreemptedRunCountsUnchanged(t *testing.T) {
	files, err := bench.Sources("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.BuildC(files, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := buildMod(t, goodSrc)

	for _, m := range target.Machines() {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			// The reference: a plain host, no server and no hooks.
			h, err := core.AcquireHost(comp, core.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := h.RunTranslated(m, translate.Paper(true))
			out := h.Output()
			h.Release()
			if err != nil || ref.Faulted {
				t.Fatalf("reference run %+v: %v", ref, err)
			}

			s := serve.New(serve.Config{Workers: 1, QueueCap: 2})
			defer s.Close()
			ch := s.Submit(serve.Job{ID: "compress", Mod: comp, Machine: m, Opt: translate.Paper(true)})
			stop := make(chan struct{})
			collect := shortStream(s, serve.Job{ID: "short", Mod: good, Machine: m, Opt: translate.Paper(true)}, 64, stop)
			pre := <-ch
			close(stop)
			collect()
			if pre.Err != nil || len(parks(pre.Trace)) == 0 {
				t.Fatalf("preempted run %+v, %d parks", pre, len(parks(pre.Trace)))
			}
			if pre.Insts != ref.Insts || pre.Cycles != ref.Cycles || pre.Output != out ||
				pre.ExitCode != ref.ExitCode || pre.Attr != ref.Attribution() {
				t.Errorf("preempted run %d insts %d cycles exit %d attr %+v, unpreempted %d insts %d cycles exit %d attr %+v",
					pre.Insts, pre.Cycles, pre.ExitCode, pre.Attr, ref.Insts, ref.Cycles, ref.ExitCode, ref.Attribution())
			}
		})
	}
}

// A parked job keeps its address space, so parking is bounded: never
// more than Workers jobs are parked at once, however many long jobs
// queue behind the running ones.
func TestParkedJobsBoundedByWorkers(t *testing.T) {
	const workers, longs = 2, 6
	long := buildMod(t, longSrc)
	good := buildMod(t, goodSrc)
	m := target.PPCMachine()
	s := serve.New(serve.Config{Workers: workers, QueueCap: 8})
	defer s.Close()

	var chans []<-chan serve.Result
	for i := 0; i < longs; i++ {
		chans = append(chans, s.Submit(serve.Job{ID: "long", Mod: long, Machine: m, Opt: translate.Paper(true)}))
	}
	stop := make(chan struct{})
	collect := shortStream(s, serve.Job{ID: "short", Mod: good, Machine: m, Opt: translate.Paper(true)}, -1, stop)
	type edge struct {
		at time.Time
		d  int
	}
	var edges []edge
	for _, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for _, p := range parks(r.Trace) {
			edges = append(edges, edge{p.from, +1}, edge{p.to, -1})
		}
	}
	close(stop)
	collect()

	// Parks are half-open: a job that parks as it hands its token to a
	// parked one starts its park exactly when the other's ends.
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].d < edges[j].d
	})
	parked, most := 0, 0
	for _, e := range edges {
		parked += e.d
		most = max(most, parked)
	}
	if most == 0 {
		t.Fatal("no long job ever parked")
	}
	if most > workers {
		t.Fatalf("%d jobs parked at once, want at most %d", most, workers)
	}
}
