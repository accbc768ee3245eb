package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"

	"omniware/internal/mcache"
	"omniware/internal/netserve"
	"omniware/internal/serve"
)

// The daemon under test, fixed for every workload: one omniserved in
// this process behind a real loopback listener, sized to the machine.
const (
	queueCap   = 64
	cacheLimit = 64 << 20 // memory tier only
	auditMode  = netserve.AuditWarn
	verifyMode = mcache.VerifyCheck
	maxConns   = 64 // client connection pool; mixed_burst holds 16 at once
)

type daemon struct {
	srv    *serve.Server
	cl     *netserve.Client
	hs     *http.Server
	tr     *http.Transport
	served chan struct{}
}

func quiet(string, ...any) {}

func newCache() *mcache.Cache {
	return mcache.NewWith(mcache.Config{Limit: cacheLimit, Verify: verifyMode, Logf: quiet})
}

// newServer is the daemon without its listener: the worker pool and
// the HTTP handler over it, which the layer walk also drives directly.
func newServer() (*serve.Server, *netserve.Handler, error) {
	srv := serve.New(serve.Config{Workers: runtime.NumCPU(), QueueCap: queueCap, Cache: newCache()})
	h, err := netserve.New(netserve.Config{
		Server: srv,
		// The generator is the only client: open the per-client rate
		// limiter wide so the admission queue is the only backpressure.
		Rate:  1e9,
		Burst: 1e9,
		Audit: netserve.AuditConfig{Mode: auditMode},
		Logf:  quiet,
	})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, h, nil
}

func boot() (*daemon, error) {
	srv, h, err := newServer()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		tr:     &http.Transport{MaxIdleConns: maxConns, MaxIdleConnsPerHost: maxConns},
		served: make(chan struct{}),
	}
	d.cl = &netserve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.tr}}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return d, nil
}

// close stops the listener and its connections, drains the pool, and
// returns once the serving goroutine has ended.
func (d *daemon) close() {
	d.tr.CloseIdleConnections()
	_ = d.hs.Close()
	<-d.served
	d.srv.Close()
}
