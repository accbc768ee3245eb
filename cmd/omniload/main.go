// omniload is the load driver for omniserved. It fires a
// deterministic, seeded schedule of module executions at a server over
// real HTTP — closed-loop (-clients concurrent workers) or open-loop
// (-rate fixed arrivals/sec) — across a weighted mix of workloads (the
// four SPEC92-style bench programs, the trivial "trivload" module, and
// on request "wildload", whose wild load must fault its own jobs and
// nothing else) and target machines, then emits a JSON report: the
// client-side latency and outcome counts, and the server's /v1/metrics
// over the run's interval (after minus before, so stage quantiles
// describe this run, not the server's lifetime).
//
// Usage:
//
//	omniload run [-addr URL | -addrs URL,URL,... | -cluster N]
//	             [-mode closed|open] [-jobs N] [-seed N]
//	             [-clients N] [-rate R] [-mix W=w,...] [-targets T=w,...]
//	             [-scale N] [-deadline-ms N] [-prewarm] [-check] [-no-sfi]
//	             [-workers N] [-queue N] [-out report.json] [-quiet]
//
// Without -addr, run boots an in-process omniserved on a loopback
// port and drives that — the hermetic mode the CI smoke job uses. With
// -addr it drives a live daemon. -addrs drives a running cluster
// through the hash-routing failover client and sums every member's
// metrics for the server interval; -cluster N boots an in-process
// N-node cluster first.
//
// omniload is a driver, not the measuring instrument: a performance
// claim is a pair of `bash benchmark/run.sh` reports put through its
// `compare`.
//
// Exit codes follow the serving convention: 0 clean, 1 when jobs
// faulted or errored (contained), 2 for infrastructure failure, a bad
// flag value, parity loss or a report that fails its own consistency
// check. The three in one line each:
//
//	omniload run -mix li=3,compress=3,alvinn=3,eqntott=3 -check             # 0
//	omniload run -mix li=3,compress=3,alvinn=3,eqntott=3,wildload=1 -check  # 1
//	omniload run -mix nosuch                                                # 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"omniware/internal/load"
	"omniware/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: omniload run [flags]")
	return serve.ExitInfra
}

// run is main minus the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "omniload: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "omniload: %v\n", err)
	return serve.ExitInfra
}

// parseMix parses "name=weight,name=weight" (a bare name means
// weight 1).
func parseMix(s string) (load.Mix, error) {
	if s == "" {
		return nil, nil
	}
	m := load.Mix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, ok := strings.Cut(part, "=")
		w := 1.0
		if ok {
			var err error
			w, err = strconv.ParseFloat(ws, 64)
			if err != nil {
				return nil, fmt.Errorf("bad weight in %q: %v", part, err)
			}
		}
		m[name] = w
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return m, nil
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("omniload run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "omniserved base URL (empty: boot an in-process server)")
	addrs := fs.String("addrs", "", "comma-separated cluster member URLs (hash-routed with failover)")
	clusterN := fs.Int("cluster", 0, "boot an in-process N-node cluster and drive it")
	mode := fs.String("mode", "closed", "load mode: closed (N clients) or open (fixed rate)")
	clients := fs.Int("clients", 8, "closed-loop concurrent clients")
	rate := fs.Float64("rate", 100, "open-loop arrivals per second")
	jobs := fs.Int("jobs", 100, "total jobs (fixed count keeps seeded runs reproducible)")
	seed := fs.Int64("seed", 1, "schedule seed")
	mix := fs.String("mix", "", "workload mix, e.g. trivload=4,li=1,compress=1 (default: trivload=4 + each SPEC=1)")
	targets := fs.String("targets", "", "target mix, e.g. mips=1,x86=1 (default: uniform over all four)")
	scale := fs.Int("scale", 1, "SPEC workload SCALE override (<0 keeps built-in size)")
	deadlineMs := fs.Int("deadline-ms", 10000, "per-request deadline")
	prewarm := fs.Bool("prewarm", false, "run one untimed job per (workload,target) pair first")
	check := fs.Bool("check", false, "interpreter parity check on every job")
	noSFI := fs.Bool("no-sfi", false, "run unsandboxed")
	out := fs.String("out", "", "write the JSON report here")
	workers := fs.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
	queueCap := fs.Int("queue", 0, "in-process server admission queue cap (0 = default)")
	quiet := fs.Bool("quiet", false, "suppress the human-readable summary")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	wmix, err := parseMix(*mix)
	if err != nil {
		return fail(stderr, fmt.Errorf("-mix: %w", err))
	}
	tmix, err := parseMix(*targets)
	if err != nil {
		return fail(stderr, fmt.Errorf("-targets: %w", err))
	}

	var memberAddrs []string
	if *addrs != "" {
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				memberAddrs = append(memberAddrs, a)
			}
		}
	}
	if *clusterN > 0 && (len(memberAddrs) > 0 || *addr != "") {
		return fail(stderr, fmt.Errorf("-cluster is exclusive with -addr/-addrs"))
	}
	if len(memberAddrs) > 0 && *addr != "" {
		return fail(stderr, fmt.Errorf("-addr and -addrs are exclusive"))
	}

	cfg := load.Config{
		Addr:       *addr,
		Addrs:      memberAddrs,
		Mode:       *mode,
		Clients:    *clients,
		Rate:       *rate,
		Jobs:       *jobs,
		Seed:       *seed,
		Workloads:  wmix,
		Targets:    tmix,
		Scale:      *scale,
		NoSFI:      *noSFI,
		DeadlineMs: *deadlineMs,
		Prewarm:    *prewarm,
		Check:      *check,
	}
	bootOpts := load.BootOpts{Workers: *workers, QueueCap: *queueCap}
	switch {
	case *clusterN > 0:
		b, err := load.BootCluster(*clusterN, bootOpts)
		if err != nil {
			return fail(stderr, err)
		}
		defer b.Close()
		cfg.Addrs = b.Addrs
		fmt.Fprintf(stderr, "omniload: booted in-process %d-node cluster at %s\n",
			*clusterN, strings.Join(b.Addrs, " "))
	case cfg.Addr == "" && len(cfg.Addrs) == 0:
		b, err := load.Boot(bootOpts)
		if err != nil {
			return fail(stderr, err)
		}
		defer b.Close()
		cfg.Addr = b.Base
		fmt.Fprintf(stderr, "omniload: booted in-process server at %s\n", b.Base)
	}

	start := time.Now()
	rep, err := load.Run(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "omniload: wrote %s\n", *out)
	}
	if !*quiet {
		fmt.Fprint(stdout, load.Format(rep))
		fmt.Fprintf(stderr, "omniload: done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if rep.Load.Parity > 0 {
		// Parity loss is a system failure, never a module failure.
		fmt.Fprintf(stderr, "omniload: %d parity failures\n", rep.Load.Parity)
		return serve.ExitInfra
	}
	if rep.Load.Faults > 0 || rep.Load.Errors > 0 {
		return serve.ExitFaults
	}
	return serve.ExitOK
}
