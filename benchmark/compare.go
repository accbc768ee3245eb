package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json: the names every pass must emit and the
// bound by which each end-to-end metric may worsen.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// check holds one pass's metrics to BENCHMARK.json: exactly the names
// listed for the pass, each a finite number in its listed unit.
func (s *benchSpec) check(res *result) error {
	want := s.EndToEnd
	if res.Traced {
		want = s.PerLayer
	}
	for _, sm := range want {
		m, ok := res.Metrics[sm.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: %s is missing", res.Workload, sm.Name)
		case m.Unit != sm.Unit:
			return fmt.Errorf("%s: %s is in %q, BENCHMARK.json says %q", res.Workload, sm.Name, m.Unit, sm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s: %s is %g", res.Workload, sm.Name, m.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%s: %d metrics, BENCHMARK.json lists %d", res.Workload, len(res.Metrics), len(want))
	}
	return nil
}

// exact reports a per-layer metric that is a count of what the
// compiler, the translators or the simulators compute: two runs of one
// commit must agree on it to the last digit.
func exact(name string) bool {
	switch name {
	case "target.sim_insts", "target.sim_cycles", "target.sandbox_pct", "cc.omni_insts", "wire.module_bytes",
		"core.exec_allocs_per_op", "sfi.obligations_per_kinst":
		return true
	}
	return strings.HasPrefix(name, "translate.") && strings.HasSuffix(name, ".expansion") ||
		strings.HasPrefix(name, "target.") && strings.HasSuffix(name, ".cpi")
}

// side is one report's view of a (workload, pass): the median over
// its sets of each metric, and how far apart its rounds and sets lay.
type side struct {
	value    map[string]float64
	spread   map[string]float64 // (max - min) / median over every round of every set
	failFrac float64
}

func (r *report) side(workload string, traced bool) (side, bool) {
	s := side{value: map[string]float64{}, spread: map[string]float64{}}
	vals := map[string][]float64{}
	all := map[string][]float64{}
	found := false
	for _, set := range r.Sets {
		for _, res := range set {
			if res.Workload != workload || res.Traced != traced {
				continue
			}
			found = true
			s.failFrac = max(s.failFrac, res.FailFrac)
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
				all[name] = append(append(all[name], m.Value), m.Rounds...)
			}
		}
	}
	for name, v := range vals {
		s.value[name] = median(v)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range all[name] {
			lo, hi = min(lo, x), max(hi, x)
		}
		s.spread[name] = (hi - lo) / math.Abs(s.value[name])
	}
	return s, found
}

// worsening is by how much of a's value b is worse: positive when b
// is the worse side.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints every workload × end-to-end metric of a and b
// and reports whether b is acceptable against a: nothing worse than
// its bound, no rise in fail_frac, and no exact count moved. With
// sameCode, a metric better by more than its bound fails too: the two
// sides ran one commit, so any such distance is the benchmark's noise.
func compareReports(a, b *report, spec *benchSpec, sameCode bool) bool {
	ok := true
	fmt.Printf("%-12s %-18s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, w := range spec.Workloads {
		sa, fa := a.side(w.Name, false)
		sb, fb := b.side(w.Name, false)
		if !fa || !fb {
			fmt.Printf("%-12s missing from a report\n", w.Name)
			ok = false
			continue
		}
		for _, sm := range spec.EndToEnd {
			va, vb := sa.value[sm.Name], sb.value[sm.Name]
			d := worsening(va, vb, sm.Better)
			verdict := "within-bound"
			switch {
			case d > sm.Bound:
				verdict = "worse"
				ok = false
			case d < -sm.Bound:
				verdict = "better"
				ok = ok && !sameCode
			case max(sa.spread[sm.Name], sb.spread[sm.Name]) > sm.Bound:
				// The difference is inside the bound but so is the noise:
				// this pair of reports cannot call the metric unchanged.
				verdict = "unresolved"
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %8.4fx  %s (%s is better, bound %g, spread A %.3f B %.3f)\n",
				w.Name, sm.Name, va, vb, vb/va, verdict, sm.Better, sm.Bound, sa.spread[sm.Name], sb.spread[sm.Name])
		}
		if sb.failFrac > sa.failFrac {
			fmt.Printf("%-12s %-18s %14.6g %14.6g            worse (any rise fails)\n", w.Name, "fail_frac", sa.failFrac, sb.failFrac)
			ok = false
		}
		la, fa := a.side(w.Name, true)
		lb, fb := b.side(w.Name, true)
		for _, sm := range spec.PerLayer {
			if fa && fb && exact(sm.Name) && la.value[sm.Name] != lb.value[sm.Name] {
				fmt.Printf("%-12s %-34s %.17g != %.17g  exact count moved\n", w.Name, sm.Name, la.value[sm.Name], lb.value[sm.Name])
				ok = false
			}
		}
	}
	return ok
}

// stable is the benchmark's check on itself: two sets on the same
// code must agree on every end-to-end metric within its bound and on
// every exact count to the last digit.
func stable(r *report, spec *benchSpec) bool {
	ok := true
	for i := 1; i < len(r.Sets); i++ {
		fmt.Printf("== set 1 (A) against set %d (B), same code\n", i+1)
		ok = compareReports(&report{Sets: r.Sets[:1]}, &report{Sets: r.Sets[i : i+1]}, spec, true) && ok
	}
	return ok
}
