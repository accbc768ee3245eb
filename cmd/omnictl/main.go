// omnictl is the client for omniserved: it compiles OmniC programs
// into wire-format (OMW) module blobs, uploads them, executes them on
// the daemon's simulated targets, and reads the daemon's metrics.
//
// Usage:
//
//	omnictl build -o mod.omw src.c [src2.c ...]
//	omnictl upload -addr URL mod.omw
//	omnictl exec -addr URL -module HASH -target mips [-check] [flags]
//	omnictl audit -addr URL HASH [-json]
//	omnictl metrics -addr URL [-text|-prom]
//	omnictl bench -addr URL [-duration 10s] [-json]
//	omnictl trace -addr URL ID          (or -recent [-n N])
//	omnictl top -addr URL [-interval 2s] [-count N] [-plain]
//	omnictl health -addr URL
//	omnictl cluster status -addrs URL,URL,...
//	omnictl cluster ring -addrs URL,URL,... [-fanout n] [HASH ...]
//	omnictl cluster metrics -addrs URL,URL,... [-per-node]
//	omnictl cluster exec -addrs URL,URL,... -module HASH [exec flags]
//	omnictl cluster upload -addrs URL,URL,... mod.omw
//
// cluster talks to an omnicluster through the same hash-routing
// failover client the load generator uses: status polls every member's
// health and peer-fill counters, ring prints the consistent-hash
// ownership (per module hash when given), metrics sums every member's
// snapshot into one fleet view, and upload/exec route to a module's
// ring owners with automatic failover past dead members.
//
// bench is the observation side of a load run: it snapshots the
// daemon's metrics, waits for the window (during which omniload — or
// anything else — drives the server), snapshots again, and prints the
// interval in the layout `metrics -text` uses for the lifetime (or,
// with -json, the layout of /v1/metrics): jobs run, cache hit rate
// over the window, per-target sandbox overhead, and per-stage latency
// quantiles computed from histogram bucket differences, not lifetime
// aggregates.
//
// audit fetches the daemon's static-analysis report for an uploaded
// module — worst-case stack depth (or the recursion cycle that defeats
// it), per-target static cycle bounds, the host-call capability
// manifest, and the per-function call-graph summary — rendered as a
// table, or raw with -json.
//
// trace renders a finished job's span tree — decode through verify,
// translate, cache and execute, with per-stage durations — plus the
// dynamic instruction attribution and the module's sandbox-overhead
// percentage; -json prints the raw trace instead. When a job
// peer-filled from another cluster member, the origin's tree carries
// the remote node's own spans, each annotated with its node address.
//
// top is the live fleet dashboard: it polls one node's
// /v1/cluster/metrics fan-out (any member aggregates the whole
// cluster) and refreshes a terminal view of fleet jobs/sec, stage
// latency quantiles over the interval, per-target sandbox overhead,
// per-peer quarantine and failover attribution, and the slowest
// traces fleet-wide. -plain suppresses the screen clearing (one
// snapshot block per interval — what the CI smoke asserts on), and
// -count bounds the refreshes.
//
// upload and exec print the server's JSON response on stdout, so
// scripts can pipe them into a JSON tool (the CI smoke test does).
//
// Exit codes follow the serving convention (serve.ExitOK and
// friends, shared with omniload): 0 for a clean outcome; 1 when the
// executed module faulted or failed (contained — the service itself
// is fine); 2 for infrastructure errors — bad flags, unreachable
// server, rejected uploads, or a -check run that lost interpreter
// parity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"omniware/internal/cc"
	"omniware/internal/cluster"
	"omniware/internal/core"
	"omniware/internal/load"
	"omniware/internal/netserve"
	"omniware/internal/scope"
	"omniware/internal/serve"
	"omniware/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: omnictl {build|upload|exec|audit|metrics|bench|trace|top|health|cluster} [flags]")
	return serve.ExitInfra
}

// run is main minus the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "build":
		return cmdBuild(rest, stdout, stderr)
	case "upload":
		return cmdUpload(false, rest, stdout, stderr)
	case "exec":
		return cmdExec(false, rest, stdout, stderr)
	case "audit":
		return cmdAudit(rest, stdout, stderr)
	case "metrics":
		return cmdMetrics(rest, stdout, stderr)
	case "bench":
		return cmdBench(rest, stdout, stderr)
	case "trace":
		return cmdTrace(rest, stdout, stderr)
	case "health":
		return cmdHealth(rest, stdout, stderr)
	case "top":
		return cmdTop(rest, stdout, stderr)
	case "cluster":
		return cmdCluster(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "omnictl: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "omnictl: %v\n", err)
	return serve.ExitInfra
}

func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("omnictl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "omniserved base URL")
	return fs, addr
}

func printJSON(stdout io.Writer, v any) {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// cmdBuild compiles OmniC sources to a wire-format module blob — the
// bytes upload sends, byte-identical on every platform.
func cmdBuild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("omnictl build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "mod.omw", "output module file")
	optLevel := fs.Int("O", 2, "optimization level")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "omnictl build: no source files")
		return serve.ExitInfra
	}
	var files []core.SourceFile
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return fail(stderr, err)
		}
		files = append(files, core.SourceFile{Name: path, Src: string(src)})
	}
	mod, err := core.BuildC(files, cc.Options{OptLevel: *optLevel})
	if err != nil {
		return fail(stderr, err)
	}
	blob, err := wire.EncodeModule(mod)
	if err != nil {
		return fail(stderr, err)
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "omnictl: %s: %d insts, %d data bytes, %d on the wire (%s)\n",
		*out, len(mod.Text), len(mod.Data), len(blob), wire.Hash(blob))
	return serve.ExitOK
}

// moduleClient is what upload and exec need of a client;
// netserve.Client (one daemon) and cluster.Client (a module's ring
// owners first, failing over past dead or shedding members) both have
// it as they are.
type moduleClient interface {
	Upload(blob []byte) (*netserve.UploadResponse, error)
	Exec(r netserve.ExecRequest) (*netserve.ExecResponse, error)
}

// moduleFlagSet is the flag set of upload or exec: against one daemon
// (-addr), or under "omnictl cluster" against a cluster (-addrs). dial
// builds the client once the flags are parsed.
func moduleFlagSet(name string, clustered bool, stderr io.Writer) (fs *flag.FlagSet, dial func() (moduleClient, error)) {
	if !clustered {
		fs, addr := newFlagSet(name, stderr)
		return fs, func() (moduleClient, error) { return &netserve.Client{Base: *addr}, nil }
	}
	fs, addrs := newClusterFlagSet(name, stderr)
	return fs, func() (moduleClient, error) {
		members := splitAddrs(*addrs)
		if len(members) == 0 {
			return nil, fmt.Errorf("cluster %s: -addrs is required", name)
		}
		cl, err := cluster.NewClient(cluster.ClientConfig{Addrs: members})
		if err != nil {
			return nil, err
		}
		return cl, nil
	}
}

func cmdUpload(clustered bool, args []string, stdout, stderr io.Writer) int {
	fs, dial := moduleFlagSet("upload", clustered, stderr)
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "%s: exactly one module file\n", fs.Name())
		return serve.ExitInfra
	}
	blob, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	cl, err := dial()
	if err != nil {
		return fail(stderr, err)
	}
	resp, err := cl.Upload(blob)
	if err != nil {
		return fail(stderr, err)
	}
	printJSON(stdout, resp)
	return serve.ExitOK
}

func cmdExec(clustered bool, args []string, stdout, stderr io.Writer) int {
	fs, dial := moduleFlagSet("exec", clustered, stderr)
	module := fs.String("module", "", "module content hash (from upload)")
	tgt := fs.String("target", "mips", "target machine (mips|sparc|ppc|x86)")
	noSFI := fs.Bool("no-sfi", false, "run without software fault isolation")
	maxSteps := fs.Uint64("max-steps", 0, "instruction budget (0 = server default)")
	deadlineMs := fs.Int("deadline-ms", 0, "wall-clock deadline (0 = server default)")
	check := fs.Bool("check", false, "also run the interpreter and verify parity")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	if *module == "" {
		fmt.Fprintf(stderr, "%s: -module is required\n", fs.Name())
		return serve.ExitInfra
	}
	cl, err := dial()
	if err != nil {
		return fail(stderr, err)
	}
	sfi := !*noSFI
	resp, err := cl.Exec(netserve.ExecRequest{
		Module:     *module,
		Target:     *tgt,
		SFI:        &sfi,
		MaxSteps:   *maxSteps,
		DeadlineMs: *deadlineMs,
		Check:      *check,
	})
	if err != nil {
		return fail(stderr, err)
	}
	printJSON(stdout, resp)
	switch {
	case *check && (resp.Parity == nil || !*resp.Parity):
		// Parity loss is a system failure, never a module failure.
		fmt.Fprintln(stderr, "omnictl: parity FAILED")
		return serve.ExitInfra
	case resp.Status != "ok":
		return serve.ExitFaults
	}
	return serve.ExitOK
}

// cmdAudit fetches and renders the static-analysis report the daemon
// holds (or derives on demand) for an uploaded module.
func cmdAudit(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("audit", stderr)
	raw := fs.Bool("json", false, "print the raw report JSON instead of the rendering")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "omnictl audit: exactly one module hash")
		return serve.ExitInfra
	}
	cl := &netserve.Client{Base: *addr}
	rep, err := cl.Audit(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if *raw {
		printJSON(stdout, rep)
		return serve.ExitOK
	}
	fmt.Fprintf(stdout, "module  %s\n", rep.Hash)
	fmt.Fprintf(stdout, "digest  %s\n", rep.Digest())
	fmt.Fprintf(stdout, "insts   %d across %d functions, %d call edges\n",
		rep.Insts, len(rep.Functions), len(rep.Calls))
	if rep.Stack.Bounded {
		fmt.Fprintf(stdout, "stack   bounded: %d bytes worst case\n", rep.Stack.Bytes)
	} else {
		fmt.Fprintf(stdout, "stack   UNBOUNDED (%s)", rep.Stack.Reason)
		if len(rep.Stack.Cycle) > 0 {
			fmt.Fprintf(stdout, ": %s", strings.Join(rep.Stack.Cycle, " -> "))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "capabilities %s\n", strings.Join(rep.Capabilities, " "))
	targets := make([]string, 0, len(rep.Cost))
	for t := range rep.Cost {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		c := rep.Cost[t]
		ti := rep.Targets[t]
		if c.Bounded {
			fmt.Fprintf(stdout, "cost    %-6s <= %d cycles (%d native insts, %d blocks)\n",
				t, c.Cycles, ti.Insts, ti.Blocks)
		} else {
			fmt.Fprintf(stdout, "cost    %-6s unbounded (%s; %d native insts, %d blocks)\n",
				t, c.Reason, ti.Insts, ti.Blocks)
		}
	}
	fmt.Fprintf(stdout, "%-20s %6s %10s %10s  %s\n", "function", "insts", "frame", "stack", "syscalls")
	for _, f := range rep.Functions {
		frame, stack := fmt.Sprintf("%d", f.FrameBytes), fmt.Sprintf("%d", f.StackBytes)
		if f.FrameBytes < 0 {
			frame = "?"
		}
		if f.StackBytes < 0 {
			stack = "?"
		}
		fmt.Fprintf(stdout, "%-20s %6d %10s %10s  %s\n",
			f.Name, f.Insts, frame, stack, strings.Join(f.Syscalls, " "))
	}
	return serve.ExitOK
}

func cmdMetrics(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("metrics", stderr)
	text := fs.Bool("text", false, "print the fixed-order text form instead of JSON")
	prom := fs.Bool("prom", false, "print the Prometheus exposition format instead of JSON")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	cl := &netserve.Client{Base: *addr}
	if *prom {
		out, err := cl.MetricsProm()
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprint(stdout, out)
		return serve.ExitOK
	}
	snap, err := cl.Metrics()
	if err != nil {
		return fail(stderr, err)
	}
	if *text {
		fmt.Fprint(stdout, snap.Text())
	} else {
		printJSON(stdout, snap)
	}
	return serve.ExitOK
}

// cmdBench brackets an observation window with two metrics snapshots
// and prints the interval between them. The subtraction, quantile
// computation and rendering are metrics.Snapshot's — a bench window
// and an omniload report describe the same interval the same way.
func cmdBench(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("bench", stderr)
	dur := fs.Duration("duration", 10*time.Second, "observation window")
	raw := fs.Bool("json", false, "print the interval as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	cl := &netserve.Client{Base: *addr}
	before, err := cl.Metrics()
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "omnictl: observing %s for %s\n", *addr, *dur)
	time.Sleep(*dur)
	after, err := cl.Metrics()
	if err != nil {
		return fail(stderr, err)
	}
	iv := after.Sub(*before)
	if *raw {
		printJSON(stdout, iv)
		return serve.ExitOK
	}
	fmt.Fprintf(stdout, "window %s\n%s", *dur, iv.Text())
	return serve.ExitOK
}

// cmdTrace fetches and renders one job's span tree, or lists recent
// jobs with -recent.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("trace", stderr)
	recent := fs.Bool("recent", false, "list recent finished jobs instead of one trace")
	n := fs.Int("n", 16, "with -recent, how many jobs to list")
	raw := fs.Bool("json", false, "print the raw trace JSON instead of the tree rendering")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	cl := &netserve.Client{Base: *addr}
	if *recent {
		list, err := cl.RecentTraces(*n)
		if err != nil {
			return fail(stderr, err)
		}
		if *raw {
			printJSON(stdout, list)
			return serve.ExitOK
		}
		for _, s := range list {
			fmt.Fprintf(stdout, "%-32s %-6s %-8s %8dus %10d insts  sandbox %.2f%%\n",
				s.ID, s.Target, s.Status, s.DurUs, s.Insts, s.SandboxPct)
		}
		return serve.ExitOK
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "omnictl trace: exactly one job ID (or -recent)")
		return serve.ExitInfra
	}
	tr, err := cl.Trace(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if *raw {
		printJSON(stdout, tr)
		return serve.ExitOK
	}
	fmt.Fprint(stdout, tr.Render())
	return serve.ExitOK
}

// cmdTop is the refreshing fleet dashboard. Every interval it asks
// one node for the fleet-merged view (the node fans out to its
// members) and renders rates and interval quantiles against the
// previous sample. The first frame has no interval to subtract, so it
// shows lifetime numbers and says so.
func cmdTop(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("top", stderr)
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	count := fs.Int("count", 0, "stop after N frames (0 = run until interrupted)")
	plain := fs.Bool("plain", false, "no screen clearing: print each frame as a block (for CI and logs)")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	if *interval <= 0 {
		fmt.Fprintln(stderr, "omnictl top: -interval must be positive")
		return serve.ExitInfra
	}
	cl := &netserve.Client{Base: *addr}
	var prev *scope.Fleet
	for frame := 0; *count <= 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		cur, err := cl.ClusterMetrics()
		if err != nil {
			return fail(stderr, err)
		}
		if !*plain {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprint(stdout, scope.RenderTop(cur, prev, *interval))
		if *plain {
			fmt.Fprintln(stdout)
		}
		prev = cur
	}
	return serve.ExitOK
}

// newClusterFlagSet is newFlagSet for cluster subcommands: -addrs
// instead of -addr, parsed into a member list.
func newClusterFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("omnictl cluster "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrs := fs.String("addrs", "", "comma-separated cluster member base URLs")
	return fs, addrs
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func cmdCluster(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: omnictl cluster {status|ring|metrics|upload|exec} -addrs URL,URL,... [flags]")
		return serve.ExitInfra
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "status":
		return cmdClusterStatus(rest, stdout, stderr)
	case "ring":
		return cmdClusterRing(rest, stdout, stderr)
	case "metrics":
		return cmdClusterMetrics(rest, stdout, stderr)
	case "upload":
		return cmdUpload(true, rest, stdout, stderr)
	case "exec":
		return cmdExec(true, rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "omnictl cluster: unknown subcommand %q\n", sub)
		return serve.ExitInfra
	}
}

// cmdClusterStatus polls every member: health, then the cluster
// section of its metrics (peer-fill hits, quarantines, failovers).
// Dead members are reported, not fatal — that is the point of asking.
func cmdClusterStatus(args []string, stdout, stderr io.Writer) int {
	fs, addrs := newClusterFlagSet("status", stderr)
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	members := splitAddrs(*addrs)
	if len(members) == 0 {
		fmt.Fprintln(stderr, "omnictl cluster status: -addrs is required")
		return serve.ExitInfra
	}
	down := 0
	for _, m := range members {
		cl := &netserve.Client{Base: m}
		if err := cl.Health(); err != nil {
			down++
			fmt.Fprintf(stdout, "%-28s DOWN  %v\n", m, err)
			continue
		}
		snap, err := cl.Metrics()
		if err != nil {
			down++
			fmt.Fprintf(stdout, "%-28s DOWN  metrics: %v\n", m, err)
			continue
		}
		line := fmt.Sprintf("%-28s ok    run=%d translations=%d peer_hits=%d peer_quarantines=%d",
			m, snap.JobsRun, snap.Translations, snap.CachePeerHits, snap.CachePeerQuarantines)
		if snap.Cluster != nil {
			line += fmt.Sprintf(" failovers=%d", snap.Cluster.Failovers)
		}
		fmt.Fprintln(stdout, line)
	}
	if down > 0 {
		fmt.Fprintf(stderr, "omnictl: %d of %d members down\n", down, len(members))
		return serve.ExitFaults
	}
	return serve.ExitOK
}

// cmdClusterRing prints the consistent-hash view every node and client
// share: the sorted member list, and — per module hash argument — the
// owner set in failover order.
func cmdClusterRing(args []string, stdout, stderr io.Writer) int {
	fs, addrs := newClusterFlagSet("ring", stderr)
	fanout := fs.Int("fanout", 0, "owners per module (0 = default 2)")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	members := splitAddrs(*addrs)
	if len(members) == 0 {
		fmt.Fprintln(stderr, "omnictl cluster ring: -addrs is required")
		return serve.ExitInfra
	}
	cl, err := cluster.NewClient(cluster.ClientConfig{Addrs: members, Fanout: *fanout})
	if err != nil {
		return fail(stderr, err)
	}
	for _, m := range cl.Ring().Members() {
		fmt.Fprintf(stdout, "member %s\n", m)
	}
	n := *fanout
	if n <= 0 {
		n = 2
	}
	for _, hash := range fs.Args() {
		fmt.Fprintf(stdout, "owners %s -> %s\n", hash, strings.Join(cl.Ring().Owners(hash, n), " "))
	}
	return serve.ExitOK
}

// cmdClusterMetrics prints the fleet-wide snapshot (every member
// summed, stage histograms added bucket-wise) or, with -per-node, each
// member's snapshot keyed by address.
func cmdClusterMetrics(args []string, stdout, stderr io.Writer) int {
	fs, addrs := newClusterFlagSet("metrics", stderr)
	perNode := fs.Bool("per-node", false, "print each member's snapshot instead of the fleet sum")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	members := splitAddrs(*addrs)
	if len(members) == 0 {
		fmt.Fprintln(stderr, "omnictl cluster metrics: -addrs is required")
		return serve.ExitInfra
	}
	if *perNode {
		out := map[string]any{}
		for _, m := range members {
			snap, err := (&netserve.Client{Base: m}).Metrics()
			if err != nil {
				return fail(stderr, err)
			}
			out[m] = snap
		}
		printJSON(stdout, out)
		return serve.ExitOK
	}
	sum, err := load.FleetMetrics(members)
	if err != nil {
		return fail(stderr, err)
	}
	printJSON(stdout, sum)
	return serve.ExitOK
}

func cmdHealth(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("health", stderr)
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}
	cl := &netserve.Client{Base: *addr}
	if err := cl.Health(); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "ok")
	return serve.ExitOK
}
