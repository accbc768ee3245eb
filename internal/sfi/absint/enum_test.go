package absint_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"omniware/internal/target"
)

// TestExhaustiveSmallModel enumerates EVERY instruction sequence up to
// the bound from the reduced per-target alphabet, wraps each in the
// canonical sandbox stub, and holds the verifiers to the containment
// contract (classify) and the executor oracle. The default bound (length ≤ 3)
// exhausts on all four targets; OMNI_ENUM_LEN raises it for longer
// offline runs.
func TestExhaustiveSmallModel(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	maxLen := 3
	if s := os.Getenv("OMNI_ENUM_LEN"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad OMNI_ENUM_LEN %q", s)
		}
		maxLen = n
	}
	for _, m := range target.Machines() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			th := harnessFor(t, m)
			al := alphabet(th)
			total, accepted := 0, 0
			seq := make([]synthInst, 0, maxLen)
			var walk func(depth int)
			walk = func(depth int) {
				if t.Failed() && total > 0 && total%1000 == 0 {
					return // already broken; stop burning time
				}
				if depth > 0 {
					total++
					prog := buildSynth(th, seq)
					before := t.Failed()
					classify(t, th, prog, func() string {
						return fmt.Sprintf("%s enum [%s]", m.Name, seqNames(seq))
					})
					if !before && !t.Failed() {
						accepted++ // counts classified-clean, not admission
					}
				}
				if depth == maxLen {
					return
				}
				for _, si := range al {
					seq = append(seq, si)
					walk(depth + 1)
					seq = seq[:len(seq)-1]
				}
			}
			walk(0)
			want := 0
			n := 1
			for i := 0; i < maxLen; i++ {
				n *= len(al)
				want += n
			}
			if total != want {
				t.Errorf("enumerated %d sequences, expected %d (alphabet %d, length ≤ %d)",
					total, want, len(al), maxLen)
			}
			t.Logf("%s: %d sequences exhausted (alphabet %d, length ≤ %d), zero findings",
				m.Name, total, len(al), maxLen)
		})
	}
}

func seqNames(seq []synthInst) string {
	names := make([]string, len(seq))
	for i, si := range seq {
		names[i] = si.name
	}
	return strings.Join(names, " ")
}
