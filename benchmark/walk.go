package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"omniware/internal/audit"
	"omniware/internal/cluster"
	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/netserve"
	"omniware/internal/serve"
	"omniware/internal/sfi"
	"omniware/internal/sfi/absint"
	"omniware/internal/target"
	"omniware/internal/translate"
	"omniware/internal/wire"
)

// walkCap bounds the modules of a large working set the walk visits.
const walkCap = 16

// walker is the layer walk: single-threaded, in this process, no
// HTTP. For every module of the working set it calls each layer's
// public functions in pipeline order, timing each call from outside.
type walker struct {
	res   *result
	m     metrics
	ws    []*program
	triv  *program
	opt   translate.Options
	sis   []translate.SegInfo
	progs [][4]*target.Program // the working set translated for every target
	omniK float64              // OmniVM instructions in the working set, thousands
}

type pair struct {
	i, ti int // working-set index, machine index
}

func (w *walker) pairs() []pair {
	var out []pair
	for i := range w.ws {
		for ti := range machines {
			out = append(out, pair{i, ti})
		}
	}
	return out
}

func layerWalk(st *state, res *result, exp *expected, outDir string) error {
	w := &walker{res: res, m: res.Metrics, ws: st.progs, opt: translate.Paper(true)}
	if len(w.ws) > walkCap {
		w.ws = w.ws[:walkCap]
	}
	for _, p := range w.ws {
		if p.name == trivload {
			w.triv = p
		}
		w.sis = append(w.sis, core.SegInfoFor(p.mod, core.RunConfig{}))
		w.omniK += float64(len(p.mod.Text)) / 1e3
	}
	if w.triv == nil {
		spec, _ := fixedSpec(trivload)
		var err error
		if w.triv, err = buildProgram(spec, exp); err != nil {
			return err
		}
	}
	w.progs = make([][4]*target.Program, len(w.ws))
	for _, step := range []func() error{
		w.producer, w.audit, w.translate, w.cache, func() error { return w.disk(outDir) },
		func() error { return w.host(exp) }, w.simulate, func() error { return w.serving(st.d) },
	} {
		if err := step(); err != nil {
			return fmt.Errorf("layer walk: %w", err)
		}
	}
	w.checkCounts(exp)
	return nil
}

// producer: the compiler, the module codec, and the interpreter's
// speed over the set-up's reference runs.
func (w *walker) producer() error {
	var build, dec, hash, interp time.Duration
	var size int
	var steps uint64
	var err error
	for _, p := range w.ws {
		build += timeIt(func() { _, err = core.BuildC(p.src, ccOpts) })
		if err != nil {
			return err
		}
		dec += timeIt(func() { _, err = wire.DecodeModule(p.blob) })
		if err != nil {
			return err
		}
		hash += timeIt(func() { wire.Hash(p.blob) })
		size += len(p.blob)
		steps += p.steps
		interp += p.interpDur
	}
	n := float64(len(w.ws))
	w.m.set("cc.build_ms_per_kinst", "ms", ms(build)/w.omniK)
	w.m.set("cc.omni_insts", "count", w.omniK*1e3)
	w.m.set("wire.decode_module_us", "us", us(dec)/n)
	w.m.set("wire.hash_us", "us", us(hash)/n)
	w.m.set("wire.module_bytes", "B", float64(size))
	w.m.set("interp.mstep_per_s", "Mstep/s", float64(steps)/1e6/interp.Seconds())
	return nil
}

func (w *walker) audit() error {
	var d time.Duration
	var err error
	for _, p := range w.ws {
		d += timeIt(func() { _, err = audit.AnalyzeTargets(p.mod, machines) })
		if err != nil {
			return err
		}
	}
	w.m.set("audit.analyze_ms", "ms", ms(d)/float64(len(w.ws)))
	w.m.set("audit.analyze_us_per_kinst", "us", us(d)/w.omniK)
	return nil
}

// translate: the translator with its phase split, both verifiers on
// the same programs, and the program codec.
func (w *walker) translate() error {
	var expand, schedule, finish, check, abs, enc, dec time.Duration
	var native, obligations int
	for ti, mach := range machines {
		var total time.Duration
		var nat int
		for i, p := range w.ws {
			var prog *target.Program
			var tim translate.Timings
			var err error
			total += timeIt(func() { prog, tim, err = translate.TranslateTimed(p.mod, mach, w.sis[i], w.opt) })
			if err != nil {
				return err
			}
			expand, schedule, finish = expand+tim.Expand, schedule+tim.Schedule, finish+tim.Finish
			w.progs[i][ti] = prog
			nat += len(prog.Code)

			var st sfi.Stats
			check += timeIt(func() { st, err = sfi.CheckStats(prog, mach, w.sis[i]) })
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.name, mach.Name, err)
			}
			obligations += st.Stores + st.Indirects
			abs += timeIt(func() { _, err = absint.CheckStats(prog, mach, w.sis[i]) })
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.name, mach.Name, err)
			}

			var payload []byte
			enc += timeIt(func() { payload, err = wire.EncodeProgram(prog) })
			if err != nil {
				return err
			}
			dec += timeIt(func() { _, err = wire.DecodeProgram(payload) })
			if err != nil {
				return err
			}
		}
		w.m.set("translate."+mach.Name+".us_per_kinst", "us", us(total)/w.omniK)
		w.m.set("translate."+mach.Name+".expansion", "ratio", float64(nat)/(w.omniK*1e3))
		native += nat
	}
	phases := float64(expand + schedule + finish)
	nativeK := float64(native) / 1e3
	progs := float64(len(w.ws) * len(machines))
	w.m.set("translate.expand_frac", "frac", float64(expand)/phases)
	w.m.set("translate.finish_frac", "frac", float64(finish)/phases)
	w.m.set("sched.us_per_kinst", "us", us(schedule)/(w.omniK*float64(len(machines))))
	w.m.set("sched.share_of_translate", "frac", float64(schedule)/phases)
	w.m.set("sfi.check_us_per_kinst", "us", us(check)/nativeK)
	w.m.set("sfi.obligations_per_kinst", "count", float64(obligations)/nativeK)
	w.m.set("absint.check_us_per_kinst", "us", us(abs)/nativeK)
	w.m.set("absint.over_check_ratio", "ratio", float64(abs)/float64(check))
	w.m.set("wire.encode_program_us", "us", us(enc)/progs)
	w.m.set("wire.decode_program_us", "us", us(dec)/progs)
	return nil
}

// cache: a miss (translate, verify, insert), a hit alone and from
// every core at once, and a peer's push with its correspondence
// retranslation.
func (w *walker) cache() error {
	c := newCache()
	pairs := w.pairs()
	lookup := func(p pair) (bool, error) {
		_, cached, err := c.Translate(w.ws[p.i].mod, machines[p.ti], w.sis[p.i], w.opt)
		return cached, err
	}
	t0 := time.Now()
	for _, p := range pairs {
		if cached, err := lookup(p); err != nil || cached {
			return fmt.Errorf("first lookup of %s/%s: cached=%v err=%v", w.ws[p.i].name, machines[p.ti].Name, cached, err)
		}
	}
	w.m.set("mcache.miss_ms", "ms", ms(time.Since(t0))/float64(len(pairs)))

	w.m.set("mcache.hit_ns", "ns", float64(timeBatch(len(pairs), func(i int) { lookup(pairs[i]) })))
	// Enough lookups per goroutine that starting it is not what is timed.
	each := max(len(pairs), 1024)
	par := timeIt(func() {
		var wg sync.WaitGroup
		for c := 0; c < runtime.NumCPU(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					lookup(pairs[i%len(pairs)])
				}
			}()
		}
		wg.Wait()
	})
	w.m.set("mcache.hit_parallel_ns", "ns", float64(par)/float64(each))

	peer := newCache()
	t0 = time.Now()
	for _, p := range pairs {
		mod, mach, si := w.ws[p.i].mod, machines[p.ti], w.sis[p.i]
		err := peer.AdmitKeyed(mcache.Key(mod, mach, si, w.opt), w.progs[p.i][p.ti],
			func() (*target.Program, error) { return translate.Translate(mod, mach, si, w.opt) })
		if err != nil {
			return err
		}
	}
	w.m.set("mcache.peer_admit_ms", "ms", ms(time.Since(t0))/float64(len(pairs)))
	return nil
}

// disk: the persistent tier in a scratch directory — no end-to-end
// workload has one, so this is where its cost is on record.
func (w *walker) disk(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := diskstore.Open(dir)
	if err != nil {
		return err
	}
	var put, get time.Duration
	pairs := w.pairs()
	for _, p := range pairs {
		mach, si, prog := machines[p.ti], w.sis[p.i], w.progs[p.i][p.ti]
		k := mcache.Key(w.ws[p.i].mod, mach, si, w.opt)
		put += timeIt(func() { err = store.Put(k, prog) })
		if err != nil {
			return err
		}
		get += timeIt(func() {
			var got *target.Program
			if got, err = store.Get(k); err == nil {
				err = sfi.Check(got, mach, si)
			}
		})
		if err != nil {
			return err
		}
	}
	w.m.set("diskstore.store_ms", "ms", ms(put)/float64(len(pairs)))
	w.m.set("diskstore.load_verify_ms", "ms", ms(get)/float64(len(pairs)))
	return nil
}

// host: the pooled address space, clean and after a run has dirtied
// it, and the allocations of one warm job.
func (w *walker) host(exp *expected) error {
	cheap := 0
	for i, p := range w.ws {
		if p.steps < w.ws[cheap].steps {
			cheap = i
		}
	}
	mod, mips := w.ws[cheap].mod, machines[0]
	cycle := func() error {
		h, err := core.AcquireHost(mod, core.RunConfig{})
		if err == nil {
			h.Release()
		}
		return err
	}
	var err error
	w.m.set("core.acquire_release_us", "us", us(timeBatch(50, func(int) { err = cycle() })))
	if err != nil {
		return err
	}
	var dirty []float64
	for rep := 0; rep < 5; rep++ {
		h, err := core.AcquireHost(mod, core.RunConfig{})
		if err != nil {
			return err
		}
		if _, err := h.RunProgram(mips, w.progs[cheap][0]); err != nil {
			h.Release()
			return err
		}
		t0 := time.Now()
		h.Release()
		err = cycle() // the next acquire pays for scrubbing the pages the run touched
		dirty = append(dirty, us(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	w.m.set("core.acquire_release_dirty_us", "us", median(dirty))

	allocs, err := execAllocs(w.triv)
	if err != nil {
		return err
	}
	w.m.set("core.exec_allocs_per_op", "count", allocs)
	if allocs != exp.ExecAllocsPerOp {
		w.res.errorf("core.exec_allocs_per_op is %g, expected.json says %g", allocs, exp.ExecAllocsPerOp)
	}
	return nil
}

// execAllocs counts the heap allocations of one warm trivload job on
// the pooled-host path the workers use.
func execAllocs(triv *program) (float64, error) {
	mips := machines[0]
	prog, err := translate.Translate(triv.mod, mips, core.SegInfoFor(triv.mod, core.RunConfig{}), translate.Paper(true))
	if err != nil {
		return 0, err
	}
	return testing.AllocsPerRun(200, func() {
		if h, err := core.AcquireHost(triv.mod, core.RunConfig{}); err == nil {
			h.RunProgram(mips, prog)
			h.Release()
		}
	}), nil
}

// simulate: each target's simulator on the working set (host speed and
// simulated CPI) and on trivload (what standing a run up costs).
func (w *walker) simulate() error {
	trivSI := core.SegInfoFor(w.triv.mod, core.RunConfig{})
	for ti, mach := range machines {
		var insts, cycles uint64
		var d time.Duration
		for i, p := range w.ws {
			h, err := core.AcquireHost(p.mod, core.RunConfig{})
			if err != nil {
				return err
			}
			t0 := time.Now()
			r, err := h.RunProgram(mach, w.progs[i][ti])
			d += time.Since(t0)
			out := h.Output()
			h.Release()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.name, mach.Name, err)
			}
			if r.Faulted || r.ExitCode != p.exit || out != p.output {
				w.res.errorf("walk: %s/%s: exit %d output %q fault %q, interpreter says exit %d output %q",
					p.name, mach.Name, r.ExitCode, out, r.Fault, p.exit, p.output)
			}
			if wi, wc := p.want[ti].insts.Load(), p.want[ti].cycles.Load(); wi != 0 && (r.Insts != wi || r.Cycles != wc) {
				w.res.errorf("walk: %s/%s: %d insts %d cycles, want %d insts %d cycles", p.name, mach.Name, r.Insts, r.Cycles, wi, wc)
			}
			insts, cycles = insts+r.Insts, cycles+r.Cycles
		}
		w.m.set("target."+mach.Name+".minst_per_s", "Minst/s", float64(insts)/1e6/d.Seconds())
		w.m.set("target."+mach.Name+".cpi", "cycles/inst", float64(cycles)/float64(insts))

		prog, err := translate.Translate(w.triv.mod, mach, trivSI, w.opt)
		if err != nil {
			return err
		}
		spin := timeBatch(50, func(int) {
			var h *core.Host
			if h, err = core.AcquireHost(w.triv.mod, core.RunConfig{}); err == nil {
				_, err = h.RunProgram(mach, prog)
				h.Release()
			}
		})
		if err != nil {
			return err
		}
		w.m.set("target."+mach.Name+".spinup_us", "us", us(spin))
	}
	return nil
}

// serving: the worker pool without HTTP, the handler without a
// socket, the socket, the metrics renderers, and the cluster ring.
func (w *walker) serving(d *daemon) error {
	srv, h, err := newServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	job := serve.Job{ID: "walk", Mod: w.triv.mod, Machine: machines[0], Opt: w.opt}
	if r := <-srv.Submit(job); r.Err != nil {
		return r.Err
	}
	submit := timeBatch(50, func(int) { <-srv.Submit(job) })
	w.m.set("serve.submit_roundtrip_us", "us", us(submit))

	snap := srv.Snapshot()
	w.m.set("metrics.snapshot_us", "us", us(timeIt(func() { snap = srv.Snapshot() })))
	w.m.set("metrics.prom_render_us", "us", us(timeIt(func() { snap.Prom() })))

	post := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		return nil
	}
	// Each module is admitted once: the audit is memoized by content
	// hash, so a second upload would time the memo.
	ups := w.ws
	if w.triv != w.ws[0] {
		ups = append([]*program{w.triv}, ups...)
	}
	var size int
	t0 := time.Now()
	for _, p := range ups {
		if err := post("/v1/modules", p.blob); err != nil {
			return err
		}
		size += len(p.blob)
	}
	admit := time.Since(t0)
	w.m.set("netserve.upload_mb_per_s", "MB/s", float64(size)/1e6/admit.Seconds())
	w.m.set("netserve.admit_ms", "ms", ms(admit)/float64(len(ups)))

	req := netserve.ExecRequest{Module: w.triv.hash, Target: machines[0].Name}
	body, _ := json.Marshal(req) // a struct of strings and numbers: cannot fail
	handler := timeBatch(50, func(int) { err = post("/v1/exec", body) })
	if err != nil {
		return err
	}
	w.m.set("netserve.handler_us", "us", us(handler))
	w.m.set("netserve.framing_us", "us", us(handler-submit))

	if _, err := d.cl.Upload(w.triv.blob); err != nil {
		return err
	}
	loop := timeBatch(50, func(int) { _, err = d.cl.Exec(req) })
	if err != nil {
		return err
	}
	w.m.set("netserve.loopback_us", "us", us(loop-handler))

	ring := cluster.NewRing([]string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"}, 0)
	w.m.set("cluster.ring_owners_ns", "ns", float64(timeBatch(100, func(i int) { ring.Owners(w.ws[i%len(w.ws)].hash, 2) })))
	return nil
}

// checkCounts holds the walk's exact counts of the fixed programs
// against expected.json.
func (w *walker) checkCounts(exp *expected) {
	for i, p := range w.ws {
		e, ok := exp.Programs[p.name]
		if !ok {
			continue
		}
		if len(p.mod.Text) != e.OmniInsts {
			w.res.errorf("%s: %d OmniVM insts, expected.json says %d", p.name, len(p.mod.Text), e.OmniInsts)
		}
		for ti, mach := range machines {
			if n := len(w.progs[i][ti].Code); n != e.Targets[mach.Name].NativeInsts {
				w.res.errorf("%s/%s: %d native insts, expected.json says %d", p.name, mach.Name, n, e.Targets[mach.Name].NativeInsts)
			}
		}
	}
}
