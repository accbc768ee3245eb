package main

import (
	"sort"
	"sync"

	"omniware/internal/trace"
)

// keepTraces bounds what trace.json holds per workload: the first
// traces of the traced round in full, while every trace of the round
// goes into the per-stage sums.
const keepTraces = 256

// stageSelf is the self time of one span name over a traced round: a
// span's duration minus the part its children cover.
type stageSelf struct {
	SelfMs float64 `json:"self_ms"`
	Count  int     `json:"count"`
}

// spanAgg sums self time by span name for one client.
type spanAgg struct {
	self   map[string]stageSelf
	spans  int
	traces int
}

// tracer is the benchmark's side of the traced round: client spans
// around every call, the server's echoed tree grafted under each
// exec, all kept in memory until the run ends.
type tracer struct {
	mu   sync.Mutex
	kept []*trace.Trace
}

func (t *tracer) add(a *spanAgg, tr *trace.Trace) {
	if a.self == nil {
		a.self = map[string]stageSelf{}
	}
	a.traces++
	a.addTree(tr.Root)
	t.mu.Lock()
	if len(t.kept) < keepTraces {
		t.kept = append(t.kept, tr)
	}
	t.mu.Unlock()
}

// backdated reports a span the server copied in from upload time
// (decode, audit): it documents the module's history and covers no
// part of this job's wall-clock.
func backdated(s *trace.Span) bool {
	for _, a := range s.Attrs {
		if a.Key == "at" && a.Val == "upload" {
			return true
		}
	}
	return false
}

func (a *spanAgg) addTree(s *trace.Span) {
	a.spans++
	var kids []*trace.Span
	for _, c := range s.Children {
		if !backdated(c) {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	// Sweep the children's union, clipped to the parent's interval.
	covered, upto, end := int64(0), s.StartNs, s.StartNs+s.DurNs
	for _, c := range kids {
		lo, hi := max(c.StartNs, upto), min(c.StartNs+c.DurNs, end)
		if hi > lo {
			covered += hi - lo
			upto = hi
		}
	}
	st := a.self[s.Name]
	st.SelfMs += float64(s.DurNs-covered) / 1e6
	st.Count++
	a.self[s.Name] = st
	for _, c := range kids {
		a.addTree(c)
	}
}

func (a *spanAgg) merge(b spanAgg) {
	if a.self == nil {
		a.self = map[string]stageSelf{}
	}
	for name, s := range b.self {
		t := a.self[name]
		t.SelfMs += s.SelfMs
		t.Count += s.Count
		a.self[name] = t
	}
	a.spans += b.spans
	a.traces += b.traces
}
