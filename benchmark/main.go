// Command benchmark is omnimark, the repository's benchmark: four HTTP
// workloads against an in-process omniserved, timed end to end with
// tracing off, then one traced round and a single-threaded walk over
// every layer's public functions for the per-layer numbers. See
// README.md.
//
//	benchmark [-seed n] [-seconds s] [-repeat n]       all workloads, both passes; writes report.json, trace.json
//	benchmark -workload w -trace 0|1 [-seed n] ...     one workload, one pass; last line is the result as JSON
//	benchmark compare A.json B.json                    judge report B against report A by BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (spec_warm, triv_warm, cold_admit, mixed_burst) in one pass; empty runs all four in both")
	pass := fs.Int("trace", 0, "with -workload: 0 times the end-to-end metrics, 1 makes the traced round and the layer walk")
	seed := fs.Int64("seed", 1, "seed of the job lists and of the synthetic modules")
	seconds := fs.Float64("seconds", 12, "length of the timed window the job lists are sized for")
	repeat := fs.Int("repeat", 1, "without -workload: run this many full sets and fail unless they agree within the bounds")
	outDir := fs.String("out", "benchmark/out", "directory for report.json, trace.json and scratch files")
	specPath := fs.String("spec", "BENCHMARK.json", "the metric names and bounds to hold results against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			return fail(fmt.Errorf("usage: benchmark compare A.json B.json"))
		}
		a, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(2))
		if err != nil {
			return fail(err)
		}
		if !compareReports(a, b, spec, false) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	exp, err := loadExpected()
	if err != nil {
		return fail(err)
	}
	onePass := func(w *workload, traced bool) (*result, error) {
		var res *result
		var err error
		if traced {
			res, err = runTraced(w, *seed, *seconds, exp, *outDir)
		} else {
			res, err = runE2E(w, *seed, *seconds, exp)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.print()
		return res, spec.check(res)
	}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := onePass(w, *pass != 0)
		if err != nil {
			return fail(err)
		}
		if err := writeTraces(*outDir, []*result{res}); err != nil {
			return fail(err)
		}
		// The last line of standard output is the result: each metric
		// with its value and unit and nothing else.
		type valueUnit struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		vu := map[string]valueUnit{}
		for name, m := range res.Metrics {
			vu[name] = valueUnit{m.Value, m.Unit}
		}
		line, err := json.Marshal(struct {
			Correct   bool                 `json:"correct"`
			Attempted int                  `json:"attempted"`
			Failed    int                  `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, vu})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	flags := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	rep := &report{Schema: schema, Env: readEnvironment(*seed, *seconds, flags)}
	correct := true
	var last []*result
	for n := 0; n < *repeat; n++ {
		last = nil
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := onePass(w, traced)
				if err != nil {
					return fail(err)
				}
				correct = correct && res.Correct
				last = append(last, res)
			}
		}
		rep.Sets = append(rep.Sets, last)
	}
	if err := writeJSON(filepath.Join(*outDir, "report.json"), rep); err != nil {
		return fail(err)
	}
	if err := writeTraces(*outDir, last); err != nil {
		return fail(err)
	}
	if !correct {
		fmt.Println("FAIL: a reply disagreed with its reference or an exact count with expected.json")
		return 1
	}
	if !stable(rep, spec) {
		fmt.Println("FAIL: two sets on the same code differ by more than a bound")
		return 1
	}
	return 0
}
