package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"omniware/internal/core"
	"omniware/internal/sfi"
	"omniware/internal/trace"
	"omniware/internal/translate"
)

var update = flag.Bool("update", false, "rewrite expected.json from this build's counts")

const smokeSeconds = 1

// runEverywhere translates p for every target, checks that the
// verifier accepts it and the run agrees with the interpreter, and
// returns the counts.
func runEverywhere(t *testing.T, p *program) map[string]expRun {
	t.Helper()
	out := map[string]expRun{}
	si := core.SegInfoFor(p.mod, core.RunConfig{})
	for _, mach := range machines {
		prog, err := translate.Translate(p.mod, mach, si, translate.Paper(true))
		if err != nil {
			t.Fatalf("%s/%s: %v", p.name, mach.Name, err)
		}
		if err := sfi.Check(prog, mach, si); err != nil {
			t.Fatalf("%s/%s: %v", p.name, mach.Name, err)
		}
		h, err := core.AcquireHost(p.mod, core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := h.RunProgram(mach, prog)
		output := h.Output()
		h.Release()
		if err != nil || r.Faulted || r.ExitCode != p.exit || output != p.output {
			t.Fatalf("%s/%s: err %v fault %q exit %d output %q; interpreter says exit %d output %q",
				p.name, mach.Name, err, r.Fault, r.ExitCode, output, p.exit, p.output)
		}
		out[mach.Name] = expRun{NativeInsts: len(prog.Code), SimInsts: r.Insts, SimCycles: r.Cycles}
	}
	return out
}

// TestExpected recomputes every exact count from source and holds
// expected.json to it. The synthetic part is the generator's test:
// same seed, byte-identical blobs (the SHA-256 of their concatenation
// is pinned), and every module terminates, prints a checksum, and
// passes sfi.Check on all four targets.
func TestExpected(t *testing.T) {
	if raceEnabled {
		t.Skip("the allocation count does not hold under the race detector")
	}
	none := &expected{}
	got := expected{Programs: map[string]expProgram{}}
	var triv *program
	for _, name := range append([]string{trivload}, sizeFor(12).specProgs...) {
		spec, err := fixedSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildProgram(spec, none)
		if err != nil {
			t.Fatal(err)
		}
		if name == trivload {
			triv = p
		}
		got.Programs[name] = expProgram{OmniInsts: len(p.mod.Text), Targets: runEverywhere(t, p)}
	}
	var err error
	if got.ExecAllocsPerOp, err = execAllocs(triv); err != nil {
		t.Fatal(err)
	}

	// The prefixes pinned: the smoke size and BENCHMARK.json's run_seconds.
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{sizeFor(smokeSeconds).coldMods, sizeFor(spec.RunSeconds).coldMods}
	specs := make([]progSpec, sizes[1])
	for i := range specs {
		specs[i] = genSpec(1, i)
	}
	progs, err := buildAll(specs, none)
	if err != nil {
		t.Fatal(err)
	}
	checksum := regexp.MustCompile(`^\d+\n$`)
	g := expGen{Seed: 1}
	sum := sha256.New()
	for i, p := range progs {
		if !checksum.MatchString(p.output) {
			t.Fatalf("%s printed %q, want a checksum line", p.name, p.output)
		}
		sum.Write(p.blob)
		g.OmniInsts += len(p.mod.Text)
		for _, r := range runEverywhere(t, p) {
			g.SimInsts += r.SimInsts
			g.SimCycles += r.SimCycles
		}
		for _, n := range sizes {
			if i+1 == n {
				g.Modules, g.SHA256 = n, hex.EncodeToString(sum.Sum(nil))
				got.Gen = append(got.Gen, g)
			}
		}
	}

	if *update {
		if err := writeJSON("expected.json", got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Errorf("expected.json is stale: the compiler, a translator or a simulator now computes something else.\n"+
			"If that is deliberate, run `go test -run TestExpected -update`.\n got %+v\nwant %+v", got, *want)
	}
}

// TestGenSeeds: another seed gives other modules, the same seed the
// same text.
func TestGenSeeds(t *testing.T) {
	if genSource(1, 0) != genSource(1, 0) {
		t.Error("genSource is not a function of (seed, index)")
	}
	if genSource(1, 0) == genSource(2, 0) || genSource(1, 0) == genSource(1, 1) {
		t.Error("genSource ignores its seed or its index")
	}
}

// TestSpecNames holds BENCHMARK.json to the rules for names and units:
// a file outside them is refused before a single run.
func TestSpecNames(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, sm := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(sm.Name) || !unit.MatchString(sm.Unit) || seen[sm.Name] {
			t.Errorf("metric %q in %q: bad or repeated name, or bad unit", sm.Name, sm.Unit)
		}
		if sm.Better != "higher" && sm.Better != "lower" {
			t.Errorf("metric %q: better is %q", sm.Name, sm.Better)
		}
		seen[sm.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestSmoke runs every workload in both passes at the smoke size and
// holds the output to BENCHMARK.json and expected.json.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json lists unknown workload %q", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			var res *result
			if traced {
				res, err = runTraced(w, 1, smokeSeconds, exp, t.TempDir())
			} else {
				res, err = runE2E(w, 1, smokeSeconds, exp)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			// Correct covers: every reply equal to the interpreter's
			// reference and to expected.json's counts, no translation on
			// a warm workload, no cache hit on the cold one.
			if raceEnabled && len(res.Errors) == 1 && strings.HasPrefix(res.Errors[0], "core.exec_allocs_per_op") {
				res.Correct = true
			}
			if !res.Correct || res.Failed != 0 || res.FailFrac != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			if err := spec.check(res); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if !traced {
				continue
			}
			hit := res.Metrics["mcache.hit_rate"].Value
			if want := map[bool]float64{true: 1, false: 0}[w.warm]; hit != want {
				t.Errorf("%s: mcache.hit_rate %g, want %g", w.name, hit, want)
			}
			if len(res.traces) == 0 || len(res.Stages) == 0 || res.Stages["execute"].Count == 0 {
				t.Errorf("%s: traced round kept %d traces, stages %v", w.name, len(res.traces), res.Stages)
			}
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the union of
// its children, clipped to it, with backdated spans left out.
func TestSelfTime(t *testing.T) {
	root := &trace.Span{Name: "root", StartNs: 0, DurNs: 100, Children: []*trace.Span{
		{Name: "a", StartNs: 10, DurNs: 30},
		{Name: "b", StartNs: 30, DurNs: 30}, // overlaps a by 10
		{Name: "c", StartNs: 90, DurNs: 50}, // runs past the parent by 40
		{Name: "decode", StartNs: 0, DurNs: 80, Attrs: []trace.Attr{{Key: "at", Val: "upload"}}},
	}}
	var a spanAgg
	(&tracer{}).add(&a, &trace.Trace{Root: root})
	want := map[string]float64{"root": 40e-6, "a": 30e-6, "b": 30e-6, "c": 50e-6}
	for name, ms := range want {
		if got := a.self[name].SelfMs; got != ms {
			t.Errorf("self time of %s = %g ms, want %g", name, got, ms)
		}
	}
	if _, ok := a.self["decode"]; ok || a.spans != 4 {
		t.Errorf("backdated span counted: %v, %d spans", a.self, a.spans)
	}
}

// TestCompare walks the four verdicts and the two hard failures.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "jobs_per_s", Better: "higher", Bound: 0.1},
		{Name: "lat_p50_ms", Better: "lower", Bound: 0.1},
	}, PerLayer: []specMetric{{Name: "target.sim_insts"}, {Name: "mcache.hit_ns"}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	mk := func(jobs, lat float64, rounds []float64, failFrac, insts float64) *report {
		return &report{Sets: [][]*result{{
			{Workload: "w", FailFrac: failFrac, Metrics: metrics{"jobs_per_s": {Value: jobs, Rounds: rounds}, "lat_p50_ms": {Value: lat}}},
			{Workload: "w", Traced: true, Metrics: metrics{"target.sim_insts": {Value: insts}, "mcache.hit_ns": {Value: jobs}}},
		}}}
	}
	base := mk(100, 10, nil, 0, 1000)
	for _, c := range []struct {
		name string
		b    *report
		same bool
		ok   bool
	}{
		{"within bound", mk(95, 10.5, nil, 0, 1000), false, true},
		{"unresolved is not a failure", mk(95, 10, []float64{80, 110}, 0, 1000), false, true},
		{"better", mk(150, 5, nil, 0, 1000), false, true},
		{"better on the same code is noise", mk(150, 5, nil, 0, 1000), true, false},
		{"throughput worse", mk(85, 10, nil, 0, 1000), false, false},
		{"latency worse", mk(100, 11.5, nil, 0, 1000), false, false},
		{"fail_frac rose", mk(100, 10, nil, 0.01, 1000), false, false},
		{"exact count moved", mk(100, 10, nil, 0, 1001), false, false},
	} {
		if got := compareReports(base, c.b, spec, c.same); got != c.ok {
			t.Errorf("%s: ok=%v, want %v", c.name, got, c.ok)
		}
	}
}

func TestTimeIt(t *testing.T) {
	if d := timeBatch(10, func(int) { time.Sleep(100 * time.Microsecond) }); d < 100*time.Microsecond || d > 5*time.Millisecond {
		t.Errorf("timeBatch of a 100µs sleep: %v", d)
	}
}
