package translate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"omniware/internal/core"
	"omniware/internal/coretest"
	"omniware/internal/target"
	"omniware/internal/translate"
)

var update = flag.Bool("update", false, "rewrite testdata/translations.golden from the current translator")

const goldenPath = "testdata/translations.golden"

// goldenOptions are the option sets the translation golden pins: the
// paper configuration with and without SFI, and the two SFI variants
// that change what is sandboxed.
var goldenOptions = []struct {
	name string
	opt  translate.Options
}{
	{"paper-sfi", translate.Paper(true)},
	{"paper", translate.Paper(false)},
	{"sfi-hoist", translate.Options{SFI: true, Schedule: true, GlobalPointer: true, Peephole: true, SFIHoist: true}},
	{"sfi-read", translate.Options{SFI: true, Schedule: true, GlobalPointer: true, Peephole: true, ReadSFI: true}},
}

// writeInst feeds every field of in to h in a fixed binary layout.
func writeInst(h hash.Hash, in *target.Inst) {
	var b [26]byte
	b[0] = byte(in.Op)
	b[1] = byte(in.Rd)
	b[2] = byte(in.Rs1)
	b[3] = byte(in.Rs2)
	binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
	binary.LittleEndian.PutUint32(b[8:], uint32(in.Target))
	b[12] = byte(in.CC)
	b[13] = byte(in.Cat)
	binary.LittleEndian.PutUint32(b[14:], uint32(in.Src))
	for i, f := range []bool{in.MemSrc, in.MemDst, in.Indexed} {
		if f {
			b[18+i] = 1
		}
	}
	binary.LittleEndian.PutUint32(b[21:], uint32(len(in.Sym)))
	h.Write(b[:])
	h.Write([]byte(in.Sym))
}

// programDigest is one SHA-256 over a translated program's code and
// its OmniVM-to-native map.
func programDigest(p *target.Program) string {
	h := sha256.New()
	for i := range p.Code {
		writeInst(h, &p.Code[i])
	}
	var w [4]byte
	for _, v := range p.OmniToNative {
		binary.LittleEndian.PutUint32(w[:], uint32(v))
		h.Write(w[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTranslationsGolden pins every translated instruction of the
// example programs and the four SPEC-style workloads, on every target
// under every option set in goldenOptions. Scheduling and delay-slot
// filling are deterministic, so any change in what the translator
// emits, or in what order, changes a digest and names the case. The
// file's first line is the translate.Version its digests belong to.
func TestTranslationsGolden(t *testing.T) {
	cases := coretest.ExampleCases()
	bench, err := coretest.BenchCases(0)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, bench...)

	var lines []string
	for _, c := range cases {
		mod, err := core.BuildC(c.Files, c.Opts)
		if err != nil {
			t.Fatalf("%s: build: %v", c.Name, err)
		}
		si := core.SegInfoFor(mod, core.RunConfig{})
		for _, m := range target.Machines() {
			for _, o := range goldenOptions {
				prog, err := translate.Translate(mod, m, si, o.opt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.Name, m.Name, o.name, err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s %s", c.Name, m.Name, o.name, programDigest(prog)))
			}
		}
	}
	header := fmt.Sprintf("translate.Version %d", translate.Version)
	raw, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	wantHeader, want := want[0], want[1:]

	if *update {
		// A changed digest is a translator whose output changed, and a
		// cache keyed on an unchanged translate.Version would go on
		// serving the old output from disk and from peers as if it
		// were this one's. Refuse to pin it until Version moves.
		if raw != nil && wantHeader == header && !slices.Equal(want, lines) {
			t.Fatalf("translator output changed under %s: bump translate.Version, then run -update", header)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		got := header + "\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if wantHeader != header {
		t.Fatalf("%s pins %q, the translator is %q: run with -update", goldenPath, wantHeader, header)
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cases, the test produces %d", goldenPath, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("translation changed (bump translate.Version and run -update if meant):\n  got:  %s\n  want: %s", lines[i], want[i])
		}
	}
}

// Translations running at once, as the cache's workers run them, must
// each produce exactly what one translation alone does: the scheduler
// scratch belongs to one translation and is shared with no other.
func TestConcurrentTranslationsAgree(t *testing.T) {
	bench, err := coretest.BenchCases(0)
	if err != nil {
		t.Fatal(err)
	}
	c := bench[0]
	mod, err := core.BuildC(c.Files, c.Opts)
	if err != nil {
		t.Fatal(err)
	}
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	machines := target.Machines()
	want := make([]string, len(machines))
	for i, m := range machines {
		prog, err := translate.Translate(mod, m, si, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = programDigest(prog)
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, m := range machines {
			wg.Add(1)
			go func(i int, m *target.Machine) {
				defer wg.Done()
				prog, err := translate.Translate(mod, m, si, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if got := programDigest(prog); got != want[i] {
					t.Errorf("%s/%s: concurrent translation differs from a lone one", c.Name, m.Name)
				}
			}(i, m)
		}
	}
	wg.Wait()
}
