// omniserved is the network module-hosting daemon: an HTTP front door
// (internal/netserve) over the internal/serve worker pool, with the
// verified translation cache optionally backed by a persistent disk
// tier (internal/mcache/diskstore) so warm capacity survives
// restarts.
//
// Usage:
//
//	omniserved [-addr host:port] [-workers n] [-queue n]
//	           [-cache-mb n] [-cache-dir path]
//	           [-rate r] [-burst n] [-max-modules n]
//	           [-deadline-ms n] [-max-deadline-ms n]
//	           [-audit off|warn|enforce]
//	           [-audit-max-stack bytes] [-audit-max-cost cycles]
//	           [-audit-caps name,name,...]
//	           [-debug-addr host:port]
//	           [-cluster-self URL -cluster-members URL,URL,...]
//	           [-cluster-secret s] [-cluster-fanout n]
//
// With -cluster-members (a static member list shared by every node,
// including this node's own -cluster-self URL), the daemon joins an
// omnicluster: translation-cache misses probe the module's ring
// owners over GET /v1/peer/translation before retranslating, stopping
// at the first copy that verifies — an owner without one translates it
// on demand. Every arriving artifact is re-verified locally before
// admission; peer fill is the only way a translation reaches another
// node.
// Cluster mode requires a shared peer-auth secret — the same value on
// every member, via -cluster-secret or the OMNI_CLUSTER_SECRET
// environment variable (preferred: the environment keeps it out of
// process listings) — which gates every /v1/peer/* request.
//
// The daemon prints "listening on ADDR" to stderr once the socket is
// bound (pass -addr 127.0.0.1:0 to let the kernel pick a free port —
// the printed line is how scripts learn it). SIGINT/SIGTERM starts a
// graceful drain: /healthz flips to 503, new work is refused,
// in-flight jobs run to completion, then the process exits 0. A
// second signal aborts immediately.
//
// Endpoints (see internal/netserve): POST /v1/modules, POST /v1/exec,
// GET /v1/metrics, GET /v1/trace/{id}, GET /v1/trace/recent,
// GET /v1/trace/slow, GET /v1/cluster/metrics (any node aggregates
// the fleet — omnictl top's data source), GET /healthz. omnictl is
// the matching client.
//
// -debug-addr binds a second, operator-only listener serving the
// net/http/pprof endpoints (/debug/pprof/...) — kept off the public
// socket so profiling is never exposed to module-uploading clients.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"omniware/internal/cluster"
	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/netserve"
	"omniware/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main minus the process exit, so tests can drive it.
func run(args []string, stderr *os.File) int {
	fs := flag.NewFlagSet("omniserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = kernel-assigned)")
	workers := fs.Int("workers", 0, "jobs running at once (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue capacity")
	cacheMB := fs.Int("cache-mb", 64, "in-memory translation cache budget in MiB")
	cacheDir := fs.String("cache-dir", "", "persistent translation cache directory (empty = memory only)")
	rate := fs.Float64("rate", netserve.DefaultRate, "per-client request rate limit (req/s)")
	burst := fs.Float64("burst", netserve.DefaultBurst, "per-client burst allowance")
	maxModules := fs.Int("max-modules", netserve.DefaultMaxModules, "uploaded-module registry capacity")
	deadlineMs := fs.Int("deadline-ms", int(netserve.DefaultDeadline/time.Millisecond), "default per-request deadline")
	maxDeadlineMs := fs.Int("max-deadline-ms", int(netserve.DefaultMaxDeadline/time.Millisecond), "cap on client-requested deadlines")
	auditMode := fs.String("audit", netserve.AuditOff, "admission-time static-analysis gate: off, warn or enforce")
	auditMaxStack := fs.Int64("audit-max-stack", 0, "cap on the proven worst-case stack depth in bytes (0 = no cap)")
	auditMaxCost := fs.Uint64("audit-max-cost", 0, "cap on the whole-module static cycle bound per target (0 = no cap)")
	auditCaps := fs.String("audit-caps", "", "comma-separated host-call allow-list (empty = unrestricted)")
	debugAddr := fs.String("debug-addr", "", "pprof listener address (empty = disabled)")
	clusterSelf := fs.String("cluster-self", "", "this node's base URL as peers reach it (e.g. http://10.0.0.1:8080)")
	clusterMembers := fs.String("cluster-members", "", "comma-separated member base URLs, including self")
	clusterSecret := fs.String("cluster-secret", os.Getenv("OMNI_CLUSTER_SECRET"),
		"shared peer-auth secret, same on every member (default $OMNI_CLUSTER_SECRET); required in cluster mode")
	clusterFanout := fs.Int("cluster-fanout", 0, "ring owners per module (0 = default 2)")
	if err := fs.Parse(args); err != nil {
		return serve.ExitInfra
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "omniserved: "+format+"\n", a...)
	}

	cacheCfg := mcache.Config{Limit: int64(*cacheMB) << 20, Logf: logf}
	if *cacheDir != "" {
		store, err := diskstore.Open(*cacheDir)
		if err != nil {
			logf("opening cache dir: %v", err)
			return serve.ExitInfra
		}
		cacheCfg.Disk = store
		if n, bytes, err := store.Len(); err == nil {
			logf("persistent cache: %s (%d entries, %d bytes)", store.Root(), n, bytes)
		} else {
			logf("persistent cache: %s", store.Root())
		}
	}

	// Cluster mode: the cluster engine becomes the cache's peer source
	// (misses probe ring owners before retranslating — every arrival
	// re-verified locally) and the HTTP layer's peer endpoint backend.
	var peers *cluster.Peers
	if *clusterMembers != "" {
		if *clusterSecret == "" {
			logf("cluster mode requires -cluster-secret (or OMNI_CLUSTER_SECRET): the same shared peer-auth secret on every member")
			return serve.ExitInfra
		}
		var members []string
		for _, m := range strings.Split(*clusterMembers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		var err error
		peers, err = cluster.New(cluster.Config{
			Self:    *clusterSelf,
			Members: members,
			Secret:  *clusterSecret,
			Fanout:  *clusterFanout,
			Logf:    logf,
		})
		if err != nil {
			logf("%v", err)
			return serve.ExitInfra
		}
		cacheCfg.Peer = peers
		logf("cluster: self=%s members=%d fanout=%d", peers.Self(), len(members), *clusterFanout)
	} else if *clusterSelf != "" {
		logf("-cluster-self requires -cluster-members")
		return serve.ExitInfra
	}

	cache := mcache.NewWith(cacheCfg)
	srv := serve.New(serve.Config{
		Workers:  *workers,
		QueueCap: *queue,
		Cache:    cache,
	})
	if peers != nil {
		srv.SetClusterSnapshot(peers.Snapshot)
	}
	netCfg := netserve.Config{
		Server:      srv,
		MaxModules:  *maxModules,
		Rate:        *rate,
		Burst:       *burst,
		Deadline:    time.Duration(*deadlineMs) * time.Millisecond,
		MaxDeadline: time.Duration(*maxDeadlineMs) * time.Millisecond,
		Audit: netserve.AuditConfig{
			Mode:          *auditMode,
			MaxStackBytes: *auditMaxStack,
			MaxCostCycles: *auditMaxCost,
		},
		Logf: logf,
	}
	if *auditCaps != "" {
		for _, c := range strings.Split(*auditCaps, ",") {
			if c = strings.TrimSpace(c); c != "" {
				netCfg.Audit.Capabilities = append(netCfg.Audit.Capabilities, c)
			}
		}
	}
	if netCfg.Audit.Mode != netserve.AuditOff {
		logf("audit gate: mode=%s max-stack=%d max-cost=%d caps=%v",
			netCfg.Audit.Mode, netCfg.Audit.MaxStackBytes, netCfg.Audit.MaxCostCycles, netCfg.Audit.Capabilities)
	}
	if peers != nil {
		// Assigned only when non-nil: a typed nil in the interface field
		// would enable the peer endpoints with no backend behind them.
		netCfg.Peer = peers
		netCfg.PeerAuth = *clusterSecret
	}
	h, err := netserve.New(netCfg)
	if err != nil {
		logf("%v", err)
		return serve.ExitInfra
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		return serve.ExitInfra
	}
	logf("listening on %s", ln.Addr())

	if *debugAddr != "" {
		// The default ServeMux would work, but an explicit mux keeps the
		// debug surface to exactly the pprof family.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logf("debug listener: %v", err)
			return serve.ExitInfra
		}
		logf("debug listening on %s", dln.Addr())
		dbgSrv := &http.Server{Handler: dmux}
		defer dbgSrv.Close()
		go func() { _ = dbgSrv.Serve(dln) }()
	}

	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logf("%v: draining (in-flight jobs will finish)", s)
	case err := <-serveErr:
		logf("serve: %v", err)
		srv.Close()
		return serve.ExitInfra
	}

	// Graceful drain: stop advertising health, refuse new work, let
	// the HTTP layer finish responses in flight (each waits for its
	// job), then close the pool. A second signal cuts the wait short.
	h.SetDraining(true)
	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logf("shutdown: %v", err)
		}
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
		logf("drained")
		return serve.ExitOK
	case s := <-sig:
		logf("%v: aborting drain", s)
		_ = httpSrv.Close()
		return serve.ExitFaults
	}
}
