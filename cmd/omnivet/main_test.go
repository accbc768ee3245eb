package main

import (
	"strings"
	"testing"
)

// vet runs the driver against the testdata module and returns exit
// code plus both streams.
func vet(t *testing.T, patterns ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := runIn("testdata/mod", patterns, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFindsViolations(t *testing.T) {
	code, out, errs := vet(t, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), out)
	}
	for _, want := range []string{
		"string-matching on error text",
		"errors.Is",
		"core.ErrBudget",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
	// Both findings are in bad.go; the legal forms beside them and in
	// the good package stay unflagged.
	if n := strings.Count(out, "bad.go"); n != 2 {
		t.Errorf("findings in bad.go = %d, want 2:\n%s", n, out)
	}
}

func TestCleanPackagePasses(t *testing.T) {
	code, out, errs := vet(t, "./internal/good")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if out != "" {
		t.Fatalf("unexpected findings:\n%s", out)
	}
}
