package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/bench"
	"omniware/internal/netserve"
	servemetrics "omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

const (
	rounds       = 3                      // back-to-back rounds of the identical list per timed window
	burstShorts  = 14                     // trivload jobs per burst
	burstLongs   = 2                      // SPEC-class jobs per burst
	burstGap     = 500 * time.Microsecond // spacing of a burst's dispatches
	prewarmSteps = 1000                   // instruction budget of a prewarm job: translate, verify, cache, stop
)

// sizing is the length of each workload's fixed list, a function of
// --seconds alone so that (seed, seconds) names one exact input. The
// factors were probed on a 2-core box at go1.24 so that three rounds
// take about --seconds there.
type sizing struct {
	specProgs []string // SPEC programs in spec_warm's working set
	specReps  int      // times each (program, target) pair appears per round
	trivJobs  int      // triv_warm jobs per round
	coldMods  int      // cold_admit modules
	bursts    int      // mixed_burst bursts per round
}

func sizeFor(seconds float64) sizing {
	sz := sizing{
		specProgs: bench.WorkloadNames,
		specReps:  max(1, int(seconds/12)),
		trivJobs:  max(200, int(seconds*8000)),
		coldMods:  max(8, int(seconds*20)),
		bursts:    max(2, int(seconds*3)),
	}
	if seconds < 6 {
		// One pass over all sixteen pairs is ~4 s of two cores; below
		// that the working set shrinks to the cheapest program.
		sz.specProgs = []string{"compress"}
	}
	return sz
}

type job struct {
	p    *program
	ti   int  // index into machines
	long bool // mixed_burst: the SPEC-class job
}

// unit is what one client takes from the list in one go: an exec job,
// a module with its upload and first execs, or a burst.
type unit struct {
	upload *program
	jobs   []job
}

// workload names are permanent: later changes are compared by them.
// Why each was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// warm workloads upload and prewarm in set-up and must see no
	// translation in the timed window; the cold one gets a fresh daemon
	// every round and must see no cache hit.
	warm bool
	// burst selects the scheduled dispatcher instead of the closed loop.
	burst bool
	specs func(seed int64, sz sizing) ([]progSpec, error)
	plan  func(r *rand.Rand, progs []*program, sz sizing) []unit
}

func fixedSpecs(names ...string) ([]progSpec, error) {
	var out []progSpec
	for _, n := range names {
		s, err := fixedSpec(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// burstSpecs is the working set of the two workloads of short jobs:
// trivload, and the long job of a burst.
func burstSpecs(int64, sizing) ([]progSpec, error) { return fixedSpecs(trivload, "compress") }

var workloads = []*workload{
	{
		name:  "spec_warm",
		warm:  true,
		specs: func(_ int64, sz sizing) ([]progSpec, error) { return fixedSpecs(sz.specProgs...) },
		plan: func(r *rand.Rand, progs []*program, sz sizing) []unit {
			var us []unit
			for rep := 0; rep < sz.specReps; rep++ {
				for _, p := range progs {
					for ti := range machines {
						us = append(us, unit{jobs: []job{{p: p, ti: ti}}})
					}
				}
			}
			r.Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
			return us
		},
	},
	{
		name: "triv_warm",
		warm: true,
		// The daemon holds compress too, exactly as mixed_burst's does:
		// the two differ in their traffic alone. It also makes the
		// set-up 30 ms of compiling and translating; trivload's own is
		// 1 ms of waking idle processors, and read 1.2 ms in one batch
		// of ten runs and 1.7 ms in the next.
		specs: burstSpecs,
		plan: func(r *rand.Rand, progs []*program, sz sizing) []unit {
			us := make([]unit, sz.trivJobs)
			for i := range us {
				us[i] = unit{jobs: []job{{p: progs[0], ti: r.Intn(len(machines))}}}
			}
			return us
		},
	},
	{
		name: "cold_admit",
		specs: func(seed int64, sz sizing) ([]progSpec, error) {
			out := make([]progSpec, sz.coldMods)
			for i := range out {
				out[i] = genSpec(seed, i)
			}
			return out, nil
		},
		plan: func(r *rand.Rand, progs []*program, _ sizing) []unit {
			us := make([]unit, len(progs))
			for i, p := range progs {
				u := unit{upload: p}
				for _, ti := range r.Perm(len(machines)) {
					u.jobs = append(u.jobs, job{p: p, ti: ti})
				}
				us[i] = u
			}
			return us
		},
	},
	{
		name:  "mixed_burst",
		warm:  true,
		burst: true,
		specs: burstSpecs,
		plan: func(r *rand.Rand, progs []*program, sz sizing) []unit {
			us := make([]unit, sz.bursts)
			for i := range us {
				var js []job
				for k := 0; k < burstShorts; k++ {
					js = append(js, job{p: progs[0], ti: r.Intn(len(machines))})
				}
				for k := 0; k < burstLongs; k++ {
					// compress on mips, sparc or ppc: ~97 ms each on the
					// reference box, so the long class is one size and
					// its percentiles do not depend on the seed's draw.
					js = append(js, job{p: progs[1], ti: r.Intn(3), long: true})
				}
				r.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
				us[i] = unit{jobs: js}
			}
			return us
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rec collects one client's outcomes in one round; no other goroutine
// touches it until the round is over.
type rec struct {
	attempted, failed, sheds int
	firstErr                 error
	jobs                     int // ok exec jobs
	insts                    uint64
	qwaitUs, runUs           []float64 // server-reported split of each ok job
	late                     []float64 // µs a scheduled dispatch ran behind
	spans                    spanAgg
	active                   time.Duration // closed loop: from the round's start to this client's last reply
}

func (r *rec) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	if netserve.Retryable(err) {
		r.sheds++
	}
}

// state is one set-up: a working set, its job list, a running daemon.
type state struct {
	w      *workload
	progs  []*program
	units  []unit
	off    []int // off[i] is the index of unit i's first job among all jobs of the list
	d      *daemon
	setup  time.Duration
	tracer *tracer // non-nil in the traced round
}

// setup is everything before the timed window. What the system does
// of it — compile, reference runs, boot, and for warm workloads upload
// and prewarm — is timed as st.setup; making the sources and the list
// is the generator's own work and is not.
func (w *workload) setup(seed int64, sz sizing, exp *expected) (*state, error) {
	specs, err := w.specs(seed, sz)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	progs, err := buildAll(specs, exp)
	if err != nil {
		return nil, err
	}
	d, err := boot()
	if err != nil {
		return nil, err
	}
	st := &state{w: w, progs: progs, d: d}
	if w.warm {
		if err := st.prewarm(); err != nil {
			d.close()
			return nil, err
		}
	}
	st.setup = time.Since(t0)
	st.units = w.plan(rand.New(rand.NewSource(seed)), progs, sz)
	st.off = make([]int, len(st.units)+1)
	for i, u := range st.units {
		st.off[i+1] = st.off[i] + len(u.jobs)
	}
	return st, nil
}

func (st *state) prewarm() error {
	for _, p := range st.progs {
		up, err := st.d.cl.Upload(p.blob)
		if err != nil {
			return fmt.Errorf("uploading %s: %w", p.name, err)
		}
		if up.Hash != p.hash {
			return fmt.Errorf("uploading %s: server hash %s, local %s", p.name, up.Hash, p.hash)
		}
		for _, m := range machines {
			// A budget-stopped run is an "error" reply by design; only
			// a transport failure or a refusal fails the prewarm. The
			// timed window asserts that nothing was left untranslated.
			if _, err := st.d.cl.Exec(netserve.ExecRequest{Module: p.hash, Target: m.Name, MaxSteps: prewarmSteps}); err != nil {
				return fmt.Errorf("prewarming %s/%s: %w", p.name, m.Name, err)
			}
		}
	}
	return nil
}

// exec issues job gi of the list, checks the reply against the
// reference, and records its latency from due.
func (st *state) exec(r *rec, rd *round, parent *trace.Span, gi int, j job, due time.Time) {
	sp := parent.Child("exec")
	resp, err := st.d.cl.Exec(netserve.ExecRequest{Module: j.p.hash, Target: machines[j.ti].Name, Trace: st.tracer != nil})
	end := time.Now()
	sp.End()
	r.attempted++
	if err := j.p.check(j.ti, resp, err); err != nil {
		r.fail(err)
		return
	}
	if resp.Trace != nil {
		sp.AttachRemote(resp.Trace.Root, "omniserved")
	}
	r.jobs++
	r.insts += resp.Insts
	r.qwaitUs = append(r.qwaitUs, float64(resp.QueueWaitUs))
	r.runUs = append(r.runUs, float64(resp.RunUs))
	rd.lat[gi] = ms(end.Sub(due))
}

// traced runs f under a client-side trace when the round is traced,
// and with a nil span — which swallows everything — when it is not.
func (st *state) traced(r *rec, id int, f func(root *trace.Span)) {
	if st.tracer == nil {
		f(nil)
		return
	}
	tr := trace.New(fmt.Sprintf("%s-%d", st.w.name, id), "client")
	f(tr.Root)
	tr.Finish("ok")
	st.tracer.add(&r.spans, tr)
}

// do runs unit ui of the closed loop: the upload, if the unit has one,
// then its jobs back to back, each due when the client gets to it.
func (st *state) do(r *rec, rd *round, ui int) {
	u := st.units[ui]
	st.traced(r, ui, func(root *trace.Span) {
		if u.upload != nil {
			sp := root.Child("upload")
			t0 := time.Now()
			up, err := st.d.cl.Upload(u.upload.blob)
			rd.up[ui] = ms(time.Since(t0))
			sp.End()
			r.attempted++
			if err == nil && up.Hash != u.upload.hash {
				err = fmt.Errorf("server hash %s, local %s", up.Hash, u.upload.hash)
			}
			if err != nil {
				r.fail(fmt.Errorf("uploading %s: %w", u.upload.name, err))
				return
			}
		}
		for k, j := range u.jobs {
			st.exec(r, rd, root, st.off[ui]+k, j, time.Now())
		}
	})
}

// round is one pass over the list.
type round struct {
	start time.Time
	wall  time.Duration
	// timed is what the round's rates are taken over: the whole round
	// for the bursts; for the closed loop the mean time a client was
	// active, which leaves out the moments at the end of a round when
	// one client has run out of list and a worker idles. How long those
	// are depends on which job the shuffle put last.
	timed  time.Duration
	lat    []float64 // per job of the list: latency from its due time, ms; 0 = failed
	up     []float64 // per unit: upload latency, ms
	recs   []*rec
	server servemetrics.Snapshot // the daemon's counters over the round
	rt     runtimeDelta
}

// runClosed keeps NumCPU clients busy: each takes the next unit when
// its previous one has replied.
func (st *state) runClosed(rd *round) {
	rd.recs = make([]*rec, runtime.NumCPU())
	var next atomic.Int64
	var wg sync.WaitGroup
	rd.start = time.Now()
	for c := range rd.recs {
		r := &rec{}
		rd.recs[c] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(st.units); i = int(next.Add(1) - 1) {
				st.do(r, rd, i)
			}
			r.active = time.Since(rd.start)
		}()
	}
	wg.Wait()
	rd.wall = time.Since(rd.start)
	for _, r := range rd.recs {
		rd.timed += r.active / time.Duration(len(rd.recs))
	}
}

// runBursts is the scheduled generator: one goroutine fires a burst's
// jobs burstGap apart whatever the replies do, and starts the next
// burst when all of this one have replied. Latency runs from the due
// time, so a late dispatch counts against the job, and how late the
// generator ran is reported.
func (st *state) runBursts(rd *round) {
	rd.recs = make([]*rec, burstShorts+burstLongs)
	for k := range rd.recs {
		rd.recs[k] = &rec{}
	}
	rd.start = time.Now()
	for ui, u := range st.units {
		var wg sync.WaitGroup
		t0 := time.Now()
		for k, j := range u.jobs {
			due := t0.Add(time.Duration(k) * burstGap)
			time.Sleep(time.Until(due))
			r := rd.recs[k] // slot k of every burst: bursts do not overlap
			r.late = append(r.late, us(time.Since(due)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				gi := st.off[ui] + k
				st.traced(r, gi, func(root *trace.Span) { st.exec(r, rd, root, gi, j, due) })
			}()
		}
		wg.Wait()
	}
	rd.wall = time.Since(rd.start)
	rd.timed = rd.wall
}

// runRound runs the list once against st.d and reads the daemon's
// counters and the process's resource use on either side of it.
func (st *state) runRound() (*round, error) {
	runtime.GC()
	before, err := st.d.cl.Metrics()
	if err != nil {
		return nil, fmt.Errorf("metrics before round: %w", err)
	}
	rd := &round{
		lat: make([]float64, st.off[len(st.units)]),
		up:  make([]float64, len(st.units)),
	}
	rt0 := readRuntime()
	if st.w.burst {
		st.runBursts(rd)
	} else {
		st.runClosed(rd)
	}
	rd.rt = readRuntime().sub(rt0)
	after, err := st.d.cl.Metrics()
	if err != nil {
		return nil, fmt.Errorf("metrics after round: %w", err)
	}
	rd.server = serverDelta(*before, *after)
	return rd, nil
}

// serverDelta subtracts the counters this benchmark reads. A fresh
// daemon's "before" is all zeroes, so the same code serves cold_admit.
func serverDelta(a, b servemetrics.Snapshot) servemetrics.Snapshot {
	d := servemetrics.Snapshot{
		JobsRun:        b.JobsRun - a.JobsRun,
		JobsFailed:     b.JobsFailed - a.JobsFailed,
		Translations:   b.Translations - a.Translations,
		SimInsts:       b.SimInsts - a.SimInsts,
		SimCycles:      b.SimCycles - a.SimCycles,
		CacheHits:      b.CacheHits - a.CacheHits,
		CacheCoalesced: b.CacheCoalesced - a.CacheCoalesced,
		CacheMisses:    b.CacheMisses - a.CacheMisses,
		CacheEvictions: b.CacheEvictions - a.CacheEvictions,
	}
	for i, t := range b.Targets {
		t.Insts -= a.Targets[i].Insts
		t.Sandbox -= a.Targets[i].Sandbox
		d.Targets = append(d.Targets, t)
	}
	return d
}

// nextRound readies the state for another pass: the warm workloads
// keep their daemon, the cold one gets a fresh one.
func (st *state) nextRound() error {
	if st.w.warm {
		return nil
	}
	st.d.close()
	d, err := boot()
	if err != nil {
		return err
	}
	st.d = d
	return nil
}
