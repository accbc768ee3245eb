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

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// One full CLI pass: run a tiny in-process load, emit the JSON
// artifact, then validate it with the validate subcommand — the exact
// sequence the CI smoke job performs.
func TestRunThenValidate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_t.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"run",
		"-jobs", "8", "-clients", "2", "-seed", "3",
		"-mix", "trivload", "-targets", "mips,x86",
		"-prewarm", "-check",
		"-out", out,
	}, &stdout, &stderr)
	if code != serve.ExitOK {
		t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "jobs/sec") {
		t.Fatalf("no summary printed:\n%s", stdout.String())
	}

	var rep load.Report
	data := readFile(t, out)
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != load.Schema || rep.Load.Jobs != 8 {
		t.Fatalf("artifact: %+v", rep)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"validate", "-strict", out}, &stdout, &stderr); code != serve.ExitOK {
		t.Fatalf("validate exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "valid") {
		t.Fatalf("validate output: %s", stdout.String())
	}

	// Corrupt the artifact; strict validation must notice.
	data = bytes.Replace(data, []byte(`"schema": "`+load.Schema+`"`), []byte(`"schema": "omniload/v9"`), 1)
	bad := filepath.Join(t.TempDir(), "BAD.json")
	writeFile(t, bad, data)
	if code := run([]string{"validate", bad}, &stdout, &stderr); code != serve.ExitInfra {
		t.Fatalf("corrupt report validated, exit %d", code)
	}
}

// The exit-code contract, on the mixes that tell the three codes
// apart: a clean mix exits 0; one wild module among clean neighbours
// faults its own jobs and nothing else — every other job ok, every job
// matching the interpreter, the shared cache still earning its keep —
// and the run exits 1; a workload nobody can build is an infrastructure
// failure, exit 2, not a contained fault.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name, mix string
		want      int
	}{
		{"clean", "trivload", serve.ExitOK},
		{"wild", "trivload=3,wildload=1", serve.ExitFaults},
		{"unknown-workload", "nosuch", serve.ExitInfra},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "rep.json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"run", "-jobs", "40", "-clients", "4",
				"-mix", tc.mix, "-check", "-quiet", "-out", out}, &stdout, &stderr)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.want, stderr.String())
			}
			if tc.want == serve.ExitInfra {
				if !strings.Contains(stderr.String(), tc.mix) {
					t.Errorf("stderr does not name the workload: %s", stderr.String())
				}
				return
			}
			var rep load.Report
			if err := json.Unmarshal(readFile(t, out), &rep); err != nil {
				t.Fatal(err)
			}
			l := rep.Load
			if l.Errors != 0 || l.Parity != 0 || l.Checked != l.Jobs || l.OK+l.Faults != l.Jobs {
				t.Errorf("outcomes: %+v", l)
			}
			if wild := tc.want == serve.ExitFaults; wild != (l.Faults >= 1) {
				t.Errorf("faults = %d on the %s mix", l.Faults, tc.name)
			}
			if l.Faults != rep.Server.FaultsContained || rep.Server.HitRate <= 0.5 {
				t.Errorf("server: contained=%d of %d faults, hit_rate=%.2f",
					rep.Server.FaultsContained, l.Faults, rep.Server.HitRate)
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
