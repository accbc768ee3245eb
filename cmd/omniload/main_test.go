package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omniware/internal/load"
	"omniware/internal/serve"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The exit-code contract, on the runs that tell the three codes
// apart: a clean mix exits 0; one wild module among clean neighbours
// faults its own jobs and nothing else — every other job ok, every job
// matching the interpreter, the shared cache still earning its keep —
// and the run exits 1; a workload nobody can build, a target nobody
// simulates or a mode nobody implements is an infrastructure failure,
// exit 2 naming the offender, not a contained fault.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string // an ExitInfra row ends with the value that must be named
		want int
	}{
		{"clean", []string{"-mix", "trivload"}, serve.ExitOK},
		{"wild", []string{"-mix", "trivload=3,wildload=1"}, serve.ExitFaults},
		{"unknown-workload", []string{"-mix", "nosuch"}, serve.ExitInfra},
		{"unknown-target", []string{"-mix", "trivload", "-targets", "vax"}, serve.ExitInfra},
		{"unknown-mode", []string{"-mix", "trivload", "-mode", "bogus"}, serve.ExitInfra},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "rep.json")
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"run", "-jobs", "40", "-clients", "4",
				"-check", "-out", out}, tc.args...), &stdout, &stderr)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.want, stderr.String())
			}
			if tc.want == serve.ExitInfra {
				if bad := tc.args[len(tc.args)-1]; !strings.Contains(stderr.String(), bad) {
					t.Errorf("stderr does not name %q: %s", bad, stderr.String())
				}
				return
			}
			if !strings.Contains(stdout.String(), "jobs/sec") {
				t.Errorf("no summary printed:\n%s", stdout.String())
			}
			var rep load.Report
			if err := json.Unmarshal(readFile(t, out), &rep); err != nil {
				t.Fatal(err)
			}
			l := rep.Load
			if rep.Schema != load.Schema || l.Jobs != 40 {
				t.Errorf("artifact: schema %q, %d jobs", rep.Schema, l.Jobs)
			}
			if l.Errors != 0 || l.Parity != 0 || l.Checked != l.Jobs || l.OK+l.Faults != l.Jobs {
				t.Errorf("outcomes: %+v", l)
			}
			if wild := tc.want == serve.ExitFaults; wild != (l.Faults >= 1) {
				t.Errorf("faults = %d on the %s mix", l.Faults, tc.name)
			}
			if l.Faults != rep.Server.FaultsContained || rep.Server.HitRate() <= 0.5 {
				t.Errorf("server: contained=%d of %d faults, hit_rate=%.2f",
					rep.Server.FaultsContained, l.Faults, rep.Server.HitRate())
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-mix", "li=x"}, &stdout, &stderr); code != serve.ExitInfra {
		t.Fatalf("bad mix accepted, exit %d", code)
	}
	if code := run([]string{"frobnicate"}, &stdout, &stderr); code != serve.ExitInfra {
		t.Fatal("unknown command accepted")
	}
	if code := run(nil, &stdout, &stderr); code != serve.ExitInfra {
		t.Fatal("no command accepted")
	}
}
