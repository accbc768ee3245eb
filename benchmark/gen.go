package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Synthetic module shape. Functions sit in three tiers — leaves call
// nothing, mids call leaves, tops call mids — so the call graph is
// acyclic and shallow: every module terminates and its dynamic cost
// stays near genFuncsMin..genFuncsMax × one small loop.
const (
	genFuncsMin = 24
	genFuncsMax = 47
)

// genSource returns the OmniC source of synthetic module index under
// seed. The text is a pure function of (seed, index): math/rand with
// an explicit source is sequence-stable across Go releases.
func genSource(seed int64, index int) string {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
	nf := genFuncsMin + r.Intn(genFuncsMax-genFuncsMin+1)
	leaves := nf / 2
	mids := nf / 3

	var b strings.Builder
	b.WriteString("unsigned g[256];\nchar bytes[256];\n\n")
	for f := 0; f < nf; f++ {
		// callees: the tier below, or none for a leaf.
		lo, hi := 0, 0
		switch {
		case f >= leaves+mids:
			lo, hi = leaves, leaves+mids
		case f >= leaves:
			lo, hi = 0, leaves
		}
		genFunc(&b, r, f, lo, hi)
	}
	fmt.Fprintf(&b, "int main(void) {\n\tunsigned s = %#x;\n\tunsigned i;\n", r.Uint32())
	b.WriteString("\tfor (i = 0; i < 256; i++) g[i] = i * 40503 + 17;\n")
	for f := 0; f < nf; f++ {
		op := [...]string{"+", "^", "-"}[r.Intn(3)]
		fmt.Fprintf(&b, "\ts = s %s f%d(s + %d);\n", op, f, r.Intn(1000))
	}
	b.WriteString("\t_print_uint(s);\n\t_putc(10);\n\treturn (int)(s & 127);\n}\n")
	return b.String()
}

// genFunc writes one function: a seeded run of arithmetic, table
// loads and stores (word and byte, so both store widths are
// sandboxed), one branch, at most one short loop, and up to two calls
// into functions [lo, hi).
func genFunc(b *strings.Builder, r *rand.Rand, f, lo, hi int) {
	fmt.Fprintf(b, "unsigned f%d(unsigned x) {\n\tunsigned a = x ^ %#x;\n\tunsigned i;\n", f, r.Uint32())
	odd := func() uint32 { return r.Uint32()%997*2 + 3 }
	sh := func() int { return 1 + r.Intn(13) }
	looped := false
	calls := 0
	for n := 7 + r.Intn(6); n > 0; n-- {
		switch k := r.Intn(9); {
		case k == 0:
			fmt.Fprintf(b, "\ta = a * %d + %d;\n", odd(), r.Intn(4096))
		case k == 1:
			fmt.Fprintf(b, "\ta ^= a >> %d;\n\ta += a << %d;\n", sh(), sh())
		case k == 2:
			fmt.Fprintf(b, "\ta = a + g[(a >> %d) & 255];\n", sh())
		case k == 3:
			fmt.Fprintf(b, "\tg[(a + %d) & 255] = a ^ %#x;\n", r.Intn(256), r.Uint32())
		case k == 4:
			fmt.Fprintf(b, "\tbytes[a & 255] = (char)(a >> %d);\n\ta += (unsigned)(unsigned char)bytes[(a >> %d) & 255];\n", sh(), sh())
		case k == 5:
			fmt.Fprintf(b, "\tif (a & %d) a += %d; else a ^= %#x;\n", 1<<r.Intn(12), r.Intn(4096), r.Uint32())
		case k == 6:
			fmt.Fprintf(b, "\ta = a %% %d + %d;\n", odd(), r.Intn(64))
		case k == 7 && !looped:
			looped = true
			fmt.Fprintf(b, "\tfor (i = 0; i < %d; i++) {\n\t\ta = a * %d + g[(a + i) & 255];\n\t\tg[(i * %d) & 255] ^= a;\n\t}\n",
				3+r.Intn(4), odd(), odd())
		case k == 8 && hi > lo && calls < 2:
			calls++
			fmt.Fprintf(b, "\ta += f%d(a ^ %d);\n", lo+r.Intn(hi-lo), r.Intn(4096))
		default:
			fmt.Fprintf(b, "\ta -= %d;\n", r.Intn(4096))
		}
	}
	b.WriteString("\treturn a;\n}\n\n")
}
