package netserve_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"omniware/internal/netserve"
	"omniware/internal/serve"
)

// The client half of the backpressure contract: saturating the
// admission queue produces 429s whose Retry-After the Go client
// surfaces in StatusError, and the bounded-retry helper honors that
// hint and eventually lands the job once the queue drains.
func TestClientSurfacesRetryAfterAndRetries(t *testing.T) {
	cl, _, _ := startServer(t,
		serve.Config{Workers: 1, QueueCap: 1},
		netserve.Config{Rate: 10000, Burst: 10000})

	spin := buildBlob(t, `int main(void){ for(;;); return 0; }`)
	up, err := cl.Upload(spin)
	if err != nil {
		t.Fatal(err)
	}

	// Saturate: one spinner on the worker, one in the queue. A short
	// deadline bounds how long the pool stays full.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", DeadlineMs: 1500})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := cl.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if snap.QueueDepth >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spinners never saturated the pool: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A plain Exec against the full queue must surface the server's
	// Retry-After in the typed error, not swallow it.
	_, err = cl.Exec(netserve.ExecRequest{Module: up.Hash, Target: "mips", DeadlineMs: 1500})
	var se *netserve.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("saturated exec: %v", err)
	}
	if se.Code != 429 || se.RetryAfter < 1 {
		t.Fatalf("429 without a usable Retry-After: %+v", se)
	}
	if !netserve.Retryable(err) {
		t.Fatalf("shed response not classified retryable: %v", err)
	}

	// The bounded-retry helper: every backoff it takes must honor the
	// server's hint (capped by the policy), and with the spinners dying
	// at their deadline the retried job must eventually be admitted.
	var mu sync.Mutex
	var delays []time.Duration
	pol := netserve.RetryPolicy{
		Max:      200,
		MaxDelay: 50 * time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
			time.Sleep(d)
		},
	}
	quick := buildBlob(t, `int main(void){ return 7; }`)
	upq, err := cl.Upload(quick)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.ExecRetry(netserve.ExecRequest{Module: upq.Hash, Target: "mips", DeadlineMs: 2000}, pol)
	if err != nil {
		t.Fatalf("ExecRetry never landed: %v", err)
	}
	if res.Status != "ok" || res.Exit != 7 {
		t.Fatalf("retried job: %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delays) == 0 {
		t.Fatal("ExecRetry succeeded without ever being shed; saturation did not hold")
	}
	for _, d := range delays {
		if d > pol.MaxDelay {
			t.Fatalf("backoff %v exceeds policy cap %v", d, pol.MaxDelay)
		}
		if d <= 0 {
			t.Fatalf("non-positive backoff %v", d)
		}
	}
	wg.Wait()

	// A non-retryable refusal must come back immediately: unknown
	// module is a 404, and the helper must not burn retries on it.
	var before int
	before = len(delays)
	_, err = cl.ExecRetry(netserve.ExecRequest{Module: "feedfacefeedface", Target: "mips"}, pol)
	if !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("unknown module: %v", err)
	}
	if len(delays) != before {
		t.Fatalf("helper slept on a non-retryable error")
	}
}

// MetricsProm reports a refusal like every other call: the message out
// of the JSON error body rather than the body's raw bytes, with the
// Retry-After hint and the request id.
func TestMetricsPromSurfacesStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set(netserve.RequestIDHeader, "r42")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"error":"draining","request_id":"r42"}`)
	}))
	defer ts.Close()
	_, err := (&netserve.Client{Base: ts.URL}).MetricsProm()
	var se *netserve.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("MetricsProm on a 503: %v", err)
	}
	want := netserve.StatusError{Code: 503, Message: "draining", RetryAfter: 7, RequestID: "r42"}
	if *se != want {
		t.Errorf("MetricsProm error %+v, want %+v", *se, want)
	}
	if !netserve.Retryable(err) {
		t.Error("a 503 from MetricsProm is not classified retryable")
	}
}
