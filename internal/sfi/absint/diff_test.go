package absint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"omniware/internal/sfi"
	"omniware/internal/target"
)

// FuzzDifferentialSFI races the two verifiers. Each input decodes to a
// target machine plus either (a) a synthesized raw program — a short
// sequence from the reduced alphabet wrapped in the canonical sandbox
// stub — or (b) a mutation of the genuine translation of harnessSrc.
// classify() then enforces the containment contract and, for anything
// either verifier admits, the executor's write-trace oracle. The seed
// corpus under testdata/fuzz/FuzzDifferentialSFI is checked in; plain
// `go test` replays every seed, and TestDifferentialSeedCorpus pins
// each seed's admission verdict so the corpus cannot silently rot.

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite the checked-in fuzz seed corpus")

func FuzzDifferentialSFI(f *testing.F) {
	for _, s := range diffCorpusSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, th, desc := decodeProgram(t, data)
		if prog == nil {
			return
		}
		classify(t, th, prog, func() string { return desc })
	})
}

// decodeProgram maps fuzz bytes to a program and its harness:
//
//	data[0] % targets  — machine
//	data[1] % 2        — 0: synthesize, 1: mutate the genuine translation
//	synthesize: up to 4 further bytes, each % len(alphabet), pick the sequence
//	mutate:     [idx16][field][val32] corrupts one instruction
func decodeProgram(tb testing.TB, data []byte) (*target.Program, *tharness, string) {
	if len(data) < 3 {
		return nil, nil, ""
	}
	ms := target.Machines()
	th := harnessFor(tb, ms[int(data[0])%len(ms)])
	if data[1]%2 == 0 {
		al := alphabet(th)
		var seq []synthInst
		for i, b := range data[2:] {
			if i == 4 {
				break
			}
			seq = append(seq, al[int(b)%len(al)])
		}
		return buildSynth(th, seq), th,
			fmt.Sprintf("%s synth [%s]", th.m.Name, seqNames(seq))
	}
	d := make([]byte, 9)
	copy(d, data)
	prog := cloneProgram(th.base)
	idx := (int(d[2]) | int(d[3])<<8) % len(prog.Code)
	val := uint32(d[5]) | uint32(d[6])<<8 | uint32(d[7])<<16 | uint32(d[8])<<24
	in := &prog.Code[idx]
	field := d[4] % 6
	switch field {
	case 0:
		in.Imm = int32(val)
	case 1:
		in.Rd = target.Reg(val % 32)
	case 2:
		in.Rs1 = target.Reg(val % 32)
	case 3:
		in.Rs2 = target.Reg(val % 32)
	case 4:
		ops := []target.Op{target.Sw, target.Sb, target.AddI, target.And, target.Or, target.Mov, target.Jr, target.Nop}
		in.Op = ops[int(val)%len(ops)]
	case 5:
		if in.Op.HasTarget() {
			in.Target = int32(int(val) % len(prog.Code))
		}
	}
	return prog, th, fmt.Sprintf("%s mutate inst %d field %d val %#x", th.m.Name, idx, field, val)
}

func cloneProgram(p *target.Program) *target.Program {
	q := *p
	q.Code = append([]target.Inst(nil), p.Code...)
	q.OmniToNative = append([]int32(nil), p.OmniToNative...)
	return &q
}

// ---------------------------------------------------------------------
// The checked-in seed corpus.

type dseed struct {
	name string
	data []byte
	// verdict pins sfi.Check's admission: "accept", "reject", or "any"
	// (mutation seeds, where the verdict depends on translator output).
	verdict string
}

// buildDiffSeeds constructs the corpus: for every target, the accepting
// sandbox idioms, their rejecting near-misses at the guard-zone
// boundary, delay-slot branch shapes, and a mutation-mode smoke seed.
func buildDiffSeeds(t testing.TB) []dseed {
	var out []dseed
	for ti, m := range target.Machines() {
		th := harnessFor(t, m)
		al := alphabet(th)
		idx := func(name string) byte {
			for i, si := range al {
				if si.name == name {
					return byte(i)
				}
			}
			t.Fatalf("%s: no alphabet entry %q", m.Name, name)
			return 0
		}
		synth := func(name, verdict string, insts ...string) {
			data := []byte{byte(ti), 0}
			for _, n := range insts {
				data = append(data, idx(n))
			}
			out = append(out, dseed{name: m.Name + "-" + name, data: data, verdict: verdict})
		}
		synth("accept-sandboxed-store", "accept", "mask", "rebase", "st")
		synth("accept-guard-edge", "accept", "mask", "rebase", "st.edge")
		synth("reject-guard-over", "reject", "mask", "rebase", "st.over")
		synth("accept-guard-fold", "accept", "mask", "rebase", "fold.edge", "st")
		synth("reject-masked-unbased", "reject", "mask", "st.disp")
		synth("reject-raw-store", "reject", "st.raw")
		synth("accept-sp-guard", "accept", "st.sp")
		synth("reject-sp-over", "reject", "st.sp.over")
		synth("accept-code-indirect", "accept", "codebound", "jr.a")
		synth("reject-raw-indirect", "reject", "jr.r")
		synth("accept-const-indirect", "accept", "const.code", "jr.r")
		synth("accept-branch-exit", "accept", "beqz.halt", "nop", "st.sp")
		synth("reject-clobbered-fold", "reject", "mask", "fold.over", "st")
		if m.Arch == target.X86 {
			synth("accept-memdst", "accept", "memdst.in")
			synth("reject-memdst-out", "reject", "memdst.out")
			// Regression: the andi-zero find below, with sfi.Check's
			// verdict pinned. `and A, R, 0` is exactly 0, the rebase
			// makes it exactly DataBase, and a store to a known
			// in-segment address is admitted. The containment contract
			// tolerates a false reject by sfi.Check, so only this pin
			// notices kcStep losing its AndI fold.
			synth("accept-andi-zero-rebase", "accept", "mask.zero", "rebase", "st")
		} else {
			synth("accept-indexed", "accept", "mask", "st.idx")
			synth("accept-gp-store", "accept", "st.gp")
			// Regression: the length-4 enumerator's find. A constant
			// input makes the mask fold to an exact value; the guard
			// fold wraps it below zero; the indexed sum must normalize
			// mod 2^32 or the abstract interpreter loses containment.
			synth("accept-wrapped-fold-indexed", "accept", "const.in", "mask", "fold.edge", "st.idx")
		}
		out = append(out, dseed{
			name:    m.Name + "-mutate-smoke",
			data:    []byte{byte(ti), 1, 0, 0, 0, 0, 0, 0, 0},
			verdict: "any",
		})
		if m.Arch == target.X86 {
			// Regression: the fuzzer's first find. Mutating a mask's
			// immediate to 0 (`and r5, r5, 0` — exactly 0 whatever the
			// input) made the abstract interpreter's constant fold
			// prove a store sfi.Check could not: kcStep did not fold
			// AndI. The fold is now mirrored in both.
			out = append(out, dseed{
				name:    m.Name + "-mutate-andi-zero",
				data:    []byte{byte(ti), 1, 23, 0, 0, 0, 0, 0, 0},
				verdict: "any",
			})
		}
	}
	return out
}

const diffCorpusDir = "testdata/fuzz/FuzzDifferentialSFI"

// diffCorpusSeeds reads the checked-in corpus (rewriting it first under
// -regen-corpus) in Go's seed-corpus file format.
func diffCorpusSeeds(t testing.TB) []dseed {
	want := buildDiffSeeds(t)
	if *regenCorpus {
		if err := os.MkdirAll(diffCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, s := range want {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
			if err := os.WriteFile(filepath.Join(diffCorpusDir, "seed-"+s.name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	names, err := filepath.Glob(filepath.Join(diffCorpusDir, "seed-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("seed corpus missing under %s (err=%v); regenerate with -regen-corpus", diffCorpusDir, err)
	}
	byName := map[string]dseed{}
	for _, s := range want {
		byName["seed-"+s.name] = s
	}
	var out []dseed
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go fuzz corpus file", name)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		decoded, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, ok := byName[filepath.Base(name)]
		if !ok {
			t.Fatalf("%s: unknown corpus entry; if intentionally added, register it in buildDiffSeeds", name)
		}
		s.data = []byte(decoded)
		out = append(out, s)
	}
	return out
}

// TestDifferentialSeedCorpus is the plain-`go test` pass over the
// checked-in corpus: the corpus may only grow (CI fails if it shrinks
// below the designed seed set), every seed must satisfy the full
// differential contract, and each pinned admission verdict must hold.
func TestDifferentialSeedCorpus(t *testing.T) {
	seeds := diffCorpusSeeds(t)
	if want := len(buildDiffSeeds(t)); len(seeds) < want {
		t.Fatalf("corpus has %d entries, want at least %d; regenerate with -regen-corpus", len(seeds), want)
	}
	for _, s := range seeds {
		prog, th, desc := decodeProgram(t, s.data)
		if prog == nil {
			t.Errorf("seed %s: does not decode to a program", s.name)
			continue
		}
		classify(t, th, prog, func() string { return "seed " + s.name + ": " + desc })
		admitted := len(sfi.Verify(prog, th.pol)) == 0
		switch s.verdict {
		case "accept":
			if !admitted {
				t.Errorf("seed %s: pinned as accepting but sfi.Check rejects", s.name)
			}
		case "reject":
			if admitted {
				t.Errorf("seed %s: pinned as rejecting but sfi.Check accepts", s.name)
			}
		}
	}
}
