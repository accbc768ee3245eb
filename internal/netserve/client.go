package netserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"omniware/internal/scope"
	"omniware/internal/serve/metrics"
	"omniware/internal/trace"
)

// Client talks to an omniserved instance. It is the programmatic face
// of the omnictl CLI and what the integration tests drive the daemon
// with.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
	// PeerAuth is the shared cluster secret sent on /v1/peer/*
	// requests (X-Omni-Peer-Auth). Only the cluster engine needs it;
	// the public endpoints ignore it.
	PeerAuth string
}

// StatusError is a non-2xx response: the HTTP status plus the error
// body, with Retry-After surfaced for 429/503 so callers can back off
// precisely and the server's request ID so the refusal can be
// correlated with its logs.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter int    // seconds; 0 when the server sent none
	RequestID  string // X-Omni-Request-Id; "" when the server sent none
}

func (e *StatusError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server returned %d: %s (request %s)", e.Code, e.Message, e.RequestID)
	}
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues the request and decodes the JSON response into out,
// converting non-2xx responses into *StatusError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return statusErrorFrom(resp, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// statusErrorFrom builds the *StatusError for a non-2xx response.
func statusErrorFrom(resp *http.Response, body []byte) *StatusError {
	se := &StatusError{Code: resp.StatusCode}
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		se.Message = ae.Error
	} else {
		se.Message = string(bytes.TrimSpace(body))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		se.RetryAfter, _ = strconv.Atoi(ra)
	}
	se.RequestID = resp.Header.Get(RequestIDHeader)
	return se
}

// Upload sends an OMW-encoded module blob and returns the server's
// description of it (including the content hash Exec needs).
func (c *Client) Upload(blob []byte) (*UploadResponse, error) {
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/modules", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var out UploadResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RetryPolicy bounds ExecRetry. The zero value selects the defaults.
type RetryPolicy struct {
	// Max is the retry budget after the first attempt (default 3).
	// When it runs out the last refusal is returned.
	Max int
	// MaxDelay caps a single backoff, whatever Retry-After asked for
	// (default 5s). The server's hint is authoritative below the cap.
	MaxDelay time.Duration
	// Sleep replaces time.Sleep (tests inject a recorder; nil = real).
	Sleep func(time.Duration)
}

// Retryable reports whether err is a shed response worth retrying: a
// 429 (rate limit or admission-queue full) or a 503 (draining). The
// client backs off and retries those; everything else — 4xx misuse,
// transport failures — is returned to the caller as-is.
func Retryable(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable
}

// ExecRetry is Exec with a bounded retry loop over shed responses,
// honoring the server's Retry-After hint: on a 429/503 it sleeps the
// advertised seconds (capped by pol.MaxDelay, with a small default
// when the server sent no hint) and tries again, at most pol.Max
// times. This is the client half of the server's backpressure
// contract — the server sheds cheaply and immediately, and the client
// owns the retry schedule.
func (c *Client) ExecRetry(r ExecRequest, pol RetryPolicy) (*ExecResponse, error) {
	if pol.Max <= 0 {
		pol.Max = 3
	}
	if pol.MaxDelay <= 0 {
		pol.MaxDelay = 5 * time.Second
	}
	sleep := pol.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.Exec(r)
		if err == nil || !Retryable(err) || attempt >= pol.Max {
			return resp, err
		}
		d := 100 * time.Millisecond // server sent no hint
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			d = time.Duration(se.RetryAfter) * time.Second
		}
		if d > pol.MaxDelay {
			d = pol.MaxDelay
		}
		sleep(d)
	}
}

// Exec runs an uploaded module and returns the outcome.
func (c *Client) Exec(r ExecRequest) (*ExecResponse, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/exec", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out ExecResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// get issues a GET for path and decodes the JSON reply as a T.
func get[T any](c *Client, path string) (*T, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	var out T
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the server's counter snapshot.
func (c *Client) Metrics() (*metrics.Snapshot, error) {
	return get[metrics.Snapshot](c, "/v1/metrics")
}

// MetricsProm fetches the counter snapshot in the Prometheus text
// exposition format.
func (c *Client) MetricsProm() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", PromContentType)
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", statusErrorFrom(resp, body)
	}
	return string(body), nil
}

// Trace fetches one job's full span tree by job ID.
func (c *Client) Trace(id string) (*trace.Trace, error) {
	return get[trace.Trace](c, "/v1/trace/"+url.PathEscape(id))
}

// RecentTraces lists summaries of up to n recent finished jobs,
// newest first.
func (c *Client) RecentTraces(n int) ([]TraceSummary, error) {
	path := "/v1/trace/recent"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	out, err := get[[]TraceSummary](c, path)
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// SlowTraces lists the K slowest traces a node ever finished, slowest
// first.
func (c *Client) SlowTraces() ([]scope.Exemplar, error) {
	out, err := get[[]scope.Exemplar](c, "/v1/trace/slow")
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// ClusterMetrics fetches the fleet-merged view from one node's
// /v1/cluster/metrics fan-out.
func (c *Client) ClusterMetrics() (*scope.Fleet, error) {
	return get[scope.Fleet](c, "/v1/cluster/metrics")
}

// Health probes /healthz; nil means the server is up and not
// draining.
func (c *Client) Health() error {
	_, err := get[struct{}](c, "/healthz")
	return err
}
