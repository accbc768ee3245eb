package load

import (
	"fmt"
	"net"
	"net/http"

	"omniware/internal/netserve"
	"omniware/internal/serve"
)

// Booted is an in-process omniserved instance on a loopback listener.
// omniload boots one when not pointed at an external server, so a
// hermetic run is still exercising the real HTTP stack — wire
// decode, routing, JSON — not a shortcut into the worker pool.
type Booted struct {
	Base    string
	Server  *serve.Server
	Handler *netserve.Handler

	hs *http.Server
	ln net.Listener
}

// BootOpts sizes the in-process instance. Zero values select the
// serve defaults.
type BootOpts struct {
	Workers  int
	QueueCap int
	Logf     func(format string, args ...any)
}

// Boot starts the instance. The per-client rate limiter is opened
// wide: the generator is the only client, and the interesting
// backpressure is the admission queue's, not the token bucket's.
func Boot(opts BootOpts) (*Booted, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	pool := serve.New(serve.Config{Workers: opts.Workers, QueueCap: opts.QueueCap})
	h, err := netserve.New(netserve.Config{
		Server: pool,
		Rate:   1e9,
		Burst:  1e9,
		Logf:   opts.Logf,
	})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("load: listen: %w", err)
	}
	b := &Booted{
		Base:    "http://" + ln.Addr().String(),
		Server:  pool,
		Handler: h,
		hs:      &http.Server{Handler: h},
		ln:      ln,
	}
	go func() { _ = b.hs.Serve(ln) }()
	return b, nil
}

// Close tears the instance down: stop accepting connections, then
// drain the pool.
func (b *Booted) Close() {
	_ = b.hs.Close()
	b.Server.Close()
}
