package netserve_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"omniware/internal/netserve"
	"omniware/internal/serve"
)

// The store program gives every target nonzero sandbox attribution.
const storeSrc = `
int buf[64];
int main(void) {
	int i;
	int *p = buf;
	for (i = 0; i < 40; i++) p[i] = i;
	return p[7];
}`

func execOne(t *testing.T, cl *netserve.Client, blob []byte, req netserve.ExecRequest) *netserve.ExecResponse {
	t.Helper()
	up, err := cl.Upload(blob)
	if err != nil {
		t.Fatal(err)
	}
	req.Module = up.Hash
	if req.Target == "" {
		req.Target = "mips"
	}
	resp, err := cl.Exec(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// /v1/metrics speaks JSON by default and the Prometheus text format
// when the scraper's Accept header asks for version 0.0.4.
func TestMetricsContentNegotiation(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	blob := buildBlob(t, storeSrc)
	execOne(t, cl, blob, netserve.ExecRequest{})

	// Default: JSON.
	resp, err := http.Get(cl.Base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type %q, want application/json", ct)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["jobs_run"].(float64) != 1 {
		t.Fatalf("jobs_run = %v", snap["jobs_run"])
	}
	if _, ok := snap["stages"]; !ok {
		t.Fatal("JSON snapshot missing stages")
	}

	// Prometheus negotiation.
	req, _ := http.NewRequest(http.MethodGet, cl.Base+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); ct != netserve.PromContentType {
		t.Fatalf("prom Content-Type %q", ct)
	}
	text, err := cl.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# TYPE omni_jobs_run_total counter",
		"omni_jobs_run_total 1",
		`omni_stage_latency_seconds_bucket{stage="run",le="+Inf"} 1`,
		`omni_target_jobs_total{target="mips"} 1`,
		`omni_target_sandbox_pct{target="mips"}`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("prom exposition missing %q:\n%s", frag, text[:min(2000, len(text))])
		}
	}

	// A multi-range Accept that includes the prom media type still
	// negotiates prom; a plain text/plain without the version does not.
	req.Header.Set("Accept", "application/json;q=0.5, text/plain;version=0.0.4;q=0.9")
	if r2, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if ct := r2.Header.Get("Content-Type"); ct != netserve.PromContentType {
			t.Errorf("multi-range Accept negotiated %q", ct)
		}
	}
	req.Header.Set("Accept", "text/plain")
	if r3, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		r3.Body.Close()
		if ct := r3.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("versionless text/plain negotiated %q, want JSON", ct)
		}
	}
}

// Trace retrieval: the exec response can echo the span tree, and the
// trace endpoints serve it by job ID and in the recent listing.
func TestTraceEndpoints(t *testing.T) {
	cl, _, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})
	blob := buildBlob(t, storeSrc)
	resp := execOne(t, cl, blob, netserve.ExecRequest{Target: "x86", Trace: true})
	if resp.Status != "ok" {
		t.Fatalf("exec: %+v", resp)
	}
	if resp.Trace == nil || resp.Trace.Root.Find("execute") == nil {
		t.Fatalf("exec did not echo a trace with an execute span: %+v", resp.Trace)
	}
	if resp.QueueWaitUs < 0 || resp.RunUs <= 0 {
		t.Fatalf("wall-clock split queue=%dus run=%dus", resp.QueueWaitUs, resp.RunUs)
	}

	tr, err := cl.Trace(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != resp.ID || tr.Status != "ok" || tr.Target != "x86" {
		t.Fatalf("fetched trace header %+v", tr)
	}
	// The JSON round trip preserves the tree and the attribution,
	// including the decode stage inherited from the module's upload.
	for _, name := range []string{"decode", "queue_wait", "cache", "execute"} {
		if tr.Root.Find(name) == nil {
			t.Fatalf("fetched trace missing span %q:\n%s", name, tr.Render())
		}
	}
	if tr.SandboxInsts == 0 || tr.SandboxPct() <= 0 {
		t.Fatalf("store-heavy module reported no sandbox overhead: %+v", tr)
	}

	recent, err := cl.RecentTraces(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) != 1 || recent[0].ID != resp.ID || recent[0].SandboxPct <= 0 {
		t.Fatalf("recent listing %+v", recent)
	}
	// The listing's wire layout: these keys in this order, and no node
	// field on a node's own listing (the summary type is the fleet
	// exemplar, whose Node is omitempty).
	hr, err := http.Get(cl.Base + "/v1/trace/recent")
	if err != nil {
		t.Fatal(err)
	}
	var raw []json.RawMessage
	err = json.NewDecoder(hr.Body).Decode(&raw)
	hr.Body.Close()
	if err != nil || len(raw) != 1 {
		t.Fatalf("raw recent listing: %d entries, %v", len(raw), err)
	}
	if got, want := objectKeys(t, raw[0]), "id kind target status durUs insts sandboxPct"; got != want {
		t.Errorf("recent listing keys %q, want %q", got, want)
	}

	// Unknown IDs 404 with a request ID on the error.
	_, err = cl.Trace("no-such-job")
	var se *netserve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown trace: %v", err)
	}
	if se.RequestID == "" {
		t.Fatal("404 carried no request ID")
	}
}

// Error responses of every class carry X-Omni-Request-Id, and the
// client surfaces it.
func TestErrorResponsesCarryRequestID(t *testing.T) {
	cl, h, _ := startServer(t, serve.Config{Workers: 1}, netserve.Config{})

	// 400: malformed exec body.
	resp, err := http.Post(cl.Base+"/v1/exec", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(netserve.RequestIDHeader) == "" {
		t.Fatalf("400 status=%d id=%q", resp.StatusCode, resp.Header.Get(netserve.RequestIDHeader))
	}

	// 404 via the typed client error.
	_, err = cl.Exec(netserve.ExecRequest{Module: "absent", Target: "mips"})
	var se *netserve.StatusError
	if !errors.As(err, &se) || se.RequestID == "" {
		t.Fatalf("404 error = %v, want StatusError with request ID", err)
	}
	if !strings.Contains(se.Error(), se.RequestID) {
		t.Fatalf("error string %q does not name the request", se.Error())
	}

	// 503 while draining.
	h.SetDraining(true)
	_, err = cl.Exec(netserve.ExecRequest{Module: "absent", Target: "mips"})
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.RequestID == "" {
		t.Fatalf("503 error = %v", err)
	}
	h.SetDraining(false)

	// Distinct requests get distinct IDs.
	r1, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	r2, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	id1, id2 := r1.Header.Get(netserve.RequestIDHeader), r2.Header.Get(netserve.RequestIDHeader)
	if id1 == "" || id1 == id2 {
		t.Fatalf("request IDs %q, %q not distinct", id1, id2)
	}
}

// objectKeys lists a JSON object's keys in wire order, space-separated.
func objectKeys(t *testing.T, obj json.RawMessage) string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(obj)))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return strings.Join(keys, " ")
}
