package load

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omniware/internal/bench"
	"omniware/internal/cc"
	"omniware/internal/cluster"
	"omniware/internal/core"
	"omniware/internal/netserve"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/trace"
	"omniware/internal/wire"
)

// TrivLoad is the trivial-module workload: all serving overhead, no
// application work. In the mix it isolates the per-job fixed cost
// (address-space setup, cache lookup, simulator spin-up) that the
// zero-allocation hot path attacks.
const TrivLoad = "trivload"

// WildLoad is the deliberately wild workload: SFI sandboxes stores, so
// an out-of-segment *load* is the fault a sandboxed module can still
// commit — on the interpreter and on every translated target alike. In
// a mix it must fault its own jobs and nothing else; it is in no
// default mix, because a run that holds it exits 1.
const WildLoad = "wildload"

// builtins are the workloads compiled from an inline source.
var builtins = map[string]string{
	TrivLoad: `int main(void) { return 0; }`,
	WildLoad: `int main(void) { int *p = (int *)0x70000000; return *p; }`,
}

// Mix is a weighted choice set: name -> weight. Weights need not sum
// to anything; only ratios matter.
type Mix map[string]float64

// Config describes one load run. Zero values select the defaults.
type Config struct {
	Addr string // base URL of the omniserved instance (required unless Addrs is set)

	// Addrs switches the generator into cluster mode: requests are
	// hash-routed across these members with failover, and the server
	// interval sums every member's metrics.
	Addrs []string

	Mode    string  // "closed" (default) or "open"
	Clients int     // closed-loop concurrency (default 8)
	Rate    float64 // open-loop arrivals per second (default 100)
	Jobs    int     // total requests; fixed count keeps seeded runs reproducible (default 100)
	Seed    int64   // schedule seed (default 1)

	Workloads Mix // default: trivload=4, each SPEC workload=1
	Targets   Mix // default: uniform over mips/sparc/ppc/x86
	Scale     int // SPEC workload SCALE override (default 1; <0 keeps built-in size)

	NoSFI      bool // run unsandboxed (default: SFI on, like production)
	DeadlineMs int  // per-request deadline (default 10000)
	Prewarm    bool // run one untimed job per distinct (workload, target) first
	Check      bool // interpreter parity check on every job (CI smoke)

	RetryMax   int           // retry budget per job on 429/503 (default 16)
	RetryDelay time.Duration // backoff cap (default 250ms; server hint honored below it)
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = "closed"
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Jobs <= 0 {
		c.Jobs = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workloads == nil {
		c.Workloads = Mix{TrivLoad: 4, "li": 1, "compress": 1, "alvinn": 1, "eqntott": 1}
	}
	if c.Targets == nil {
		c.Targets = Mix{"mips": 1, "sparc": 1, "ppc": 1, "x86": 1}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = 10000
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 16
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 250 * time.Millisecond
	}
	return c
}

// JobSpec is one scheduled request.
type JobSpec struct {
	Workload string
	Target   string
}

// picker draws weighted names deterministically. Names are sorted so
// the same seed always yields the same schedule regardless of map
// iteration order.
type picker struct {
	names []string
	cum   []float64
}

func newPicker(m Mix) (*picker, error) {
	p := &picker{}
	for n := range m {
		p.names = append(p.names, n)
	}
	sort.Strings(p.names)
	total := 0.0
	for _, n := range p.names {
		w := m[n]
		if w < 0 {
			return nil, fmt.Errorf("load: negative weight %g for %q", w, n)
		}
		total += w
		p.cum = append(p.cum, total)
	}
	if total <= 0 {
		return nil, fmt.Errorf("load: mix has no positive weight")
	}
	return p, nil
}

func (p *picker) pick(r *rand.Rand) string {
	x := r.Float64() * p.cum[len(p.cum)-1]
	for i, c := range p.cum {
		if x < c {
			return p.names[i]
		}
	}
	return p.names[len(p.names)-1]
}

// Schedule expands a config into its deterministic job sequence. The
// same (seed, jobs, mixes) always produce the same sequence, so two
// runs of one command line offer the server the same work.
func Schedule(cfg Config) ([]JobSpec, error) {
	cfg = cfg.withDefaults()
	wp, err := newPicker(cfg.Workloads)
	if err != nil {
		return nil, fmt.Errorf("load: workloads: %w", err)
	}
	tp, err := newPicker(cfg.Targets)
	if err != nil {
		return nil, fmt.Errorf("load: targets: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]JobSpec, cfg.Jobs)
	for i := range specs {
		specs[i] = JobSpec{Workload: wp.pick(rng), Target: tp.pick(rng)}
	}
	return specs, nil
}

// BuildWorkload compiles one workload to its OMW wire blob. TrivLoad
// and WildLoad are built from inline sources; everything else comes
// from the bench suite (li, compress, alvinn, eqntott).
func BuildWorkload(name string, scale int) ([]byte, error) {
	var files []core.SourceFile
	if src, ok := builtins[name]; ok {
		files = []core.SourceFile{{Name: name + ".c", Src: src}}
	} else {
		var err error
		files, err = bench.Sources(name, scale)
		if err != nil {
			return nil, err
		}
	}
	mod, err := core.BuildC(files, cc.Options{OptLevel: 2})
	if err != nil {
		return nil, fmt.Errorf("load: building %s: %w", name, err)
	}
	return wire.EncodeModule(mod)
}

// runStats accumulates outcomes across the generator's goroutines.
type runStats struct {
	ok, faults, errors    atomic.Uint64
	sheds                 atomic.Uint64
	warm, cold            atomic.Uint64
	checked, parityFails  atomic.Uint64
	lat, warmLat, coldLat trace.Histogram
}

// Run executes one load run against cfg.Addr and assembles the
// report: check the configuration, compile and upload the workload
// mix, optionally prewarm the translation cache, snapshot /v1/metrics,
// fire the schedule, and snapshot again. A mode, target or workload
// nobody knows is refused before anything reaches the server.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" && len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("load: Config.Addr or Config.Addrs is required")
	}
	var fire func(client, Config, map[string]string, []JobSpec, *runStats)
	switch cfg.Mode {
	case "closed":
		fire = runClosed
	case "open":
		fire = runOpen
	default:
		return nil, fmt.Errorf("load: unknown mode %q (want open or closed)", cfg.Mode)
	}
	for name := range cfg.Targets {
		if target.ByName(name) == nil {
			return nil, fmt.Errorf("load: unknown target %q (want mips, sparc, ppc or x86)", name)
		}
	}
	specs, err := Schedule(cfg)
	if err != nil {
		return nil, err
	}
	var cl client
	var snapshot func() (*metrics.Snapshot, error)
	var ccl *cluster.Client
	if len(cfg.Addrs) > 0 {
		ccl, err = cluster.NewClient(cluster.ClientConfig{Addrs: cfg.Addrs})
		if err != nil {
			return nil, err
		}
		cl = ccl
		snapshot = func() (*metrics.Snapshot, error) { return FleetMetrics(cfg.Addrs) }
	} else {
		ncl := &netserve.Client{Base: cfg.Addr}
		cl = ncl
		snapshot = ncl.Metrics
	}

	// Build every workload the schedule uses, then upload: a name that
	// does not build fails the run with the server untouched.
	var names []string
	blobs := map[string][]byte{}
	for _, s := range specs {
		if _, ok := blobs[s.Workload]; ok {
			continue
		}
		blob, err := BuildWorkload(s.Workload, cfg.Scale)
		if err != nil {
			return nil, err
		}
		blobs[s.Workload] = blob
		names = append(names, s.Workload)
	}
	hashes := map[string]string{}
	for _, name := range names {
		up, err := cl.Upload(blobs[name])
		if err != nil {
			return nil, fmt.Errorf("load: uploading %s: %w", name, err)
		}
		hashes[name] = up.Hash
	}

	if cfg.Prewarm {
		seen := map[JobSpec]bool{}
		for _, s := range specs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if _, err := execOne(cl, cfg, hashes, s, nil); err != nil {
				return nil, fmt.Errorf("load: prewarm %s/%s: %w", s.Workload, s.Target, err)
			}
		}
	}

	// The interval opens after the uploads and the prewarm, so the
	// translations and stage quantiles describe the serving phase only.
	before, err := snapshot()
	if err != nil {
		return nil, fmt.Errorf("load: metrics before: %w", err)
	}

	var st runStats
	start := time.Now()
	fire(cl, cfg, hashes, specs, &st)
	wall := time.Since(start)

	after, err := snapshot()
	if err != nil {
		return nil, fmt.Errorf("load: metrics after: %w", err)
	}

	r := &Report{
		Schema: Schema,
		Config: ConfigSummary{
			Mode:       cfg.Mode,
			Jobs:       cfg.Jobs,
			Seed:       cfg.Seed,
			Scale:      cfg.Scale,
			SFI:        !cfg.NoSFI,
			Prewarm:    cfg.Prewarm,
			DeadlineMs: cfg.DeadlineMs,
			Workloads:  cfg.Workloads,
			Targets:    cfg.Targets,
		},
		Load: LoadStats{
			DurationSec: wall.Seconds(),
			JobsPerSec:  float64(len(specs)) / wall.Seconds(),
			Jobs:        uint64(len(specs)),
			OK:          st.ok.Load(),
			Faults:      st.faults.Load(),
			Errors:      st.errors.Load(),
			Sheds:       st.sheds.Load(),
			Warm:        st.warm.Load(),
			Cold:        st.cold.Load(),
			Checked:     st.checked.Load(),
			Parity:      st.parityFails.Load(),
			Latency:     latStats(st.lat.Snapshot()),
			WarmLatency: latStats(st.warmLat.Snapshot()),
			ColdLatency: latStats(st.coldLat.Snapshot()),
		},
		Server: after.Sub(*before),
	}
	if cfg.Mode == "closed" {
		r.Config.Clients = cfg.Clients
	} else {
		r.Config.Rate = cfg.Rate
	}
	if ccl != nil {
		r.Config.Nodes = len(cfg.Addrs)
		r.Load.Failovers = ccl.Failovers()
	}
	if err := Validate(r); err != nil {
		return nil, err
	}
	return r, nil
}

// execOne issues one request with the run's retry policy. st == nil
// (prewarm) skips accounting.
func execOne(cl client, cfg Config, hashes map[string]string, s JobSpec, st *runStats) (*netserve.ExecResponse, error) {
	sfi := !cfg.NoSFI
	req := netserve.ExecRequest{
		Module:     hashes[s.Workload],
		Target:     s.Target,
		SFI:        &sfi,
		DeadlineMs: cfg.DeadlineMs,
		Check:      cfg.Check && st != nil,
	}
	pol := netserve.RetryPolicy{Max: cfg.RetryMax, MaxDelay: cfg.RetryDelay}
	if st != nil {
		pol.Sleep = func(d time.Duration) {
			st.sheds.Add(1)
			time.Sleep(d)
		}
	}
	t0 := time.Now()
	resp, err := cl.ExecRetry(req, pol)
	d := time.Since(t0)
	if st == nil {
		return resp, err
	}
	st.lat.Observe(d)
	if err != nil {
		st.errors.Add(1)
		return resp, err
	}
	switch resp.Status {
	case "ok":
		st.ok.Add(1)
	case "fault(contained)":
		st.faults.Add(1)
	default:
		st.errors.Add(1)
	}
	if resp.Cached {
		st.warm.Add(1)
		st.warmLat.Observe(d)
	} else {
		st.cold.Add(1)
		st.coldLat.Observe(d)
	}
	if resp.Parity != nil {
		st.checked.Add(1)
		if !*resp.Parity {
			st.parityFails.Add(1)
		}
	}
	return resp, nil
}

// runClosed keeps cfg.Clients requests in flight: each worker pulls
// the next schedule slot until the schedule is exhausted.
func runClosed(cl client, cfg Config, hashes map[string]string, specs []JobSpec, st *runStats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(specs)) {
					return
				}
				_, _ = execOne(cl, cfg, hashes, specs[i], st)
			}
		}()
	}
	wg.Wait()
}

// runOpen fires requests at fixed arrival times regardless of
// completions — the arrival process the server cannot slow down, so
// queueing and shedding behaviour is actually exercised.
func runOpen(cl client, cfg Config, hashes map[string]string, specs []JobSpec, st *runStats) {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range specs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(s JobSpec) {
			defer wg.Done()
			_, _ = execOne(cl, cfg, hashes, s, st)
		}(s)
	}
	wg.Wait()
}
