package main

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"omniware/internal/serve/metrics"
)

// bench observes whatever ran inside its window: boot a server, run
// jobs while the window is open, and check the printed delta reflects
// them. The window is driven with real traffic via build/upload/exec.
func TestBenchSubcommand(t *testing.T) {
	addr := testServer(t)
	src := writeSrc(t, `int main(void){ return 0; }`)
	omw := filepath.Join(t.TempDir(), "prog.omw")
	if code, _, stderr := runCtl(t, "build", "-o", omw, src); code != 0 {
		t.Fatalf("build: %s", stderr)
	}
	code, stdout, stderr := runCtl(t, "upload", "-addr", addr, omw)
	if code != 0 {
		t.Fatalf("upload: %s", stderr)
	}
	var up struct{ Hash string }
	if err := json.Unmarshal([]byte(stdout), &up); err != nil {
		t.Fatal(err)
	}

	// Traffic happens before the window opens too; the delta must only
	// count what falls inside it, so run one job now...
	if code, _, stderr := runCtl(t, "exec", "-addr", addr, "-module", up.Hash, "-target", "mips"); code != 0 {
		t.Fatalf("exec: %s", stderr)
	}

	// ...then run two jobs inside a bench window driven concurrently.
	done := make(chan struct{})
	go func() {
		defer close(done)
		runCtl(t, "exec", "-addr", addr, "-module", up.Hash, "-target", "mips")
		runCtl(t, "exec", "-addr", addr, "-module", up.Hash, "-target", "x86")
	}()
	code, stdout, stderr = runCtl(t, "bench", "-addr", addr, "-duration", "3s")
	<-done
	if code != 0 {
		t.Fatalf("bench exit %d: %s", code, stderr)
	}
	for _, want := range []string{"window 3s", "cache_hit_rate", "stage_run"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("bench output missing %q:\n%s", want, stdout)
		}
	}
	if !regexp.MustCompile(`(?m)^jobs_run +2$`).MatchString(stdout) {
		t.Fatalf("window did not isolate the 2 in-window jobs:\n%s", stdout)
	}

	// -json emits the machine form: the interval as a metrics.Snapshot.
	code, stdout, stderr = runCtl(t, "bench", "-addr", addr, "-duration", "1ms", "-json")
	if code != 0 {
		t.Fatalf("bench -json exit %d: %s", code, stderr)
	}
	var iv metrics.Snapshot
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&iv); err != nil {
		t.Fatalf("bench -json output not a metrics.Snapshot: %v\n%s", err, stdout)
	}
	if iv.JobsRun != 0 || iv.Stages["run"].Count != 0 {
		t.Fatalf("empty window counted %d jobs, %d runs", iv.JobsRun, iv.Stages["run"].Count)
	}
}
