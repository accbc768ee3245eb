package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// The table is complete and exact: every numeric scalar field of
// Snapshot has exactly one row, the row is named by the field's json
// tag, and its accessor points at that field. A Snapshot field added
// without a row fails here, instead of silently reading zero in the
// fleet merge, the interval, Text and Prometheus.
func TestScalarTableCoversSnapshot(t *testing.T) {
	var s Snapshot
	base := reflect.ValueOf(&s).Elem().UnsafeAddr()
	rowAt := map[uintptr]*Scalar{}
	for _, sc := range scalars {
		if (sc.counter != nil) == (sc.gauge != nil) {
			t.Fatalf("row %s: exactly one of counter and gauge must be set", sc.name)
		}
		var off uintptr
		if sc.counter != nil {
			off = reflect.ValueOf(sc.counter(&s)).Pointer() - base
		} else {
			off = reflect.ValueOf(sc.gauge(&s)).Pointer() - base
		}
		if other := rowAt[off]; other != nil {
			t.Errorf("rows %s and %s point at the same field", other.name, sc.name)
		}
		rowAt[off] = sc
	}

	st := reflect.TypeOf(s)
	scalarsDone := false
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64, reflect.Int64:
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32,
			reflect.Float32, reflect.Float64:
			t.Errorf("Snapshot.%s is a %s: scalar metrics are uint64 counters or int64 gauges", f.Name, f.Type)
			continue
		default:
			scalarsDone = true
			continue
		}
		// Metrics.live is updated with 64-bit atomics, which on 32-bit
		// platforms need 8-byte alignment: an unbroken run of 64-bit
		// fields from the start of the struct has it.
		if scalarsDone || f.Offset%8 != 0 {
			t.Errorf("Snapshot.%s must sit in the leading run of 64-bit scalar fields", f.Name)
		}
		row := rowAt[f.Offset]
		if row == nil {
			t.Errorf("Snapshot.%s has no row in the scalar table", f.Name)
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if row.name != tag {
			t.Errorf("Snapshot.%s: row is named %q, json tag is %q", f.Name, row.name, tag)
		}
		if wantCounter := f.Type.Kind() == reflect.Uint64; wantCounter != (row.counter != nil) {
			t.Errorf("Snapshot.%s: row kind does not match the field type %s", f.Name, f.Type)
		}
		delete(rowAt, f.Offset)
	}
	for _, sc := range rowAt {
		t.Errorf("row %s points at no scalar field of Snapshot", sc.name)
	}
}

// The closed-label families are as wide as their label sets.
func TestFamiliesMatchLabelSets(t *testing.T) {
	if len(StageNames) != int(StageRun)+1 {
		t.Errorf("%d stage names for %d stages", len(StageNames), int(StageRun)+1)
	}
	var m Metrics
	for _, r := range AuditReasons {
		m.AuditWarn(r)
		m.AuditReject(r)
		m.AuditReject(r)
	}
	m.AuditWarn("no-such-reason")
	s := m.Snapshot()
	for _, r := range AuditReasons {
		if s.AuditWarns[r] != 1 || s.AuditRejects[r] != 2 {
			t.Errorf("reason %s: warns=%d rejects=%d, want 1 and 2", r, s.AuditWarns[r], s.AuditRejects[r])
		}
	}
	if len(s.AuditWarns) != len(AuditReasons) || len(s.AuditRejects) != len(AuditReasons) {
		t.Errorf("an unknown reason grew the label set: %v %v", s.AuditWarns, s.AuditRejects)
	}
}

// Sub undoes MergeSnapshots on every counter, histogram and labelled
// family, leaves gauges at their current level, clamps a counter that
// went backwards to zero, and counts what the earlier snapshot lacks
// from zero.
func TestSubIsTheInterval(t *testing.T) {
	before, grown := fixtureSnapshot(0), fixtureSnapshot(1)
	after := MergeSnapshots(before, grown)
	iv := after.Sub(before)

	for _, sc := range scalars {
		if sc.counter != nil {
			if got, want := *sc.counter(&iv), *sc.counter(&grown); got != want {
				t.Errorf("%s: interval %d, want %d", sc.name, got, want)
			}
		} else if got, want := *sc.gauge(&iv), *sc.gauge(&after); got != want {
			t.Errorf("gauge %s: interval %d, want the current level %d", sc.name, got, want)
		}
	}
	for r, want := range grown.AuditWarns {
		if iv.AuditWarns[r] != want || iv.AuditRejects[r] != grown.AuditRejects[r] {
			t.Errorf("audit reason %s: interval %d/%d", r, iv.AuditWarns[r], iv.AuditRejects[r])
		}
	}
	for name, want := range grown.Stages {
		if got := iv.Stages[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("stage %s: interval %+v, want %+v", name, got, want)
		}
	}
	for _, want := range grown.Targets {
		var got TargetSnapshot // the merge sorted the targets by name
		for _, ts := range iv.Targets {
			if ts.Target == want.Target {
				got = ts
			}
		}
		if got.Jobs != want.Jobs || got.Insts != want.Insts || got.Sandbox != want.Sandbox ||
			got.Counts["base"] != want.Counts["base"] || got.Run.Count != want.Run.Count {
			t.Errorf("target %s: interval %+v, want %+v", want.Target, got, want)
		}
		if want.Insts > 0 && got.SandboxPct != want.SandboxPct {
			t.Errorf("target %s: sandbox_pct %v not recomputed from the interval (%v)", want.Target, got.SandboxPct, want.SandboxPct)
		}
	}
	if iv.Cluster.Failovers != grown.Cluster.Failovers {
		t.Errorf("failovers: interval %d, want %d", iv.Cluster.Failovers, grown.Cluster.Failovers)
	}
	p, want := iv.Cluster.Peers[0], grown.Cluster.Peers[0]
	if p.Hits != want.Hits || p.Quarantines != want.Quarantines || p.QuarantinesByReason["hash"] != want.QuarantinesByReason["hash"] {
		t.Errorf("peer %s: interval %+v, want %+v", p.Peer, p, want)
	}
	if p.StalenessMs != after.Cluster.Peers[0].StalenessMs {
		t.Errorf("peer staleness %d, want the current %d", p.StalenessMs, after.Cluster.Peers[0].StalenessMs)
	}

	// The inputs are untouched, and a swapped pair clamps instead of
	// wrapping around.
	if !reflect.DeepEqual(before, fixtureSnapshot(0)) {
		t.Error("Sub mutated its argument")
	}
	back := before.Sub(after)
	if back.JobsRun != 0 || back.AuditWarns["stack"] != 0 || back.Stages["run"].Count != 0 || back.Targets[0].Insts != 0 {
		t.Errorf("swapped snapshots did not clamp to zero: %+v", back)
	}

	// A stage with nothing new reads empty; a stage, a target and a
	// peer that first appear inside the interval count from zero.
	early, late := fixtureSnapshot(0), fixtureSnapshot(0)
	delete(early.Stages, "peer_fetch")
	early.Targets = early.Targets[:3]             // x86 has not run yet
	early.Cluster.Peers = early.Cluster.Peers[:1] // 10.0.0.3 not yet probed
	iv = late.Sub(early)
	if st := iv.Stages["run"]; st.Count != 0 || st.P50Us != 0 || st.P99Us != 0 {
		t.Errorf("stage with no new observations: %+v", st)
	}
	if !reflect.DeepEqual(iv.Stages["peer_fetch"], late.Stages["peer_fetch"]) {
		t.Errorf("new stage: interval %+v, want %+v", iv.Stages["peer_fetch"], late.Stages["peer_fetch"])
	}
	if got, want := iv.Targets[3], late.Targets[3]; got.Target != "x86" || got.Jobs != want.Jobs ||
		got.Insts != want.Insts || got.SandboxPct != want.SandboxPct || got.Run.Count != want.Run.Count {
		t.Errorf("new target: interval %+v, want %+v", got, want)
	}
	if got, want := iv.Cluster.Peers[1], late.Cluster.Peers[1]; got.Peer != want.Peer || got.Errors != want.Errors {
		t.Errorf("new peer: interval %+v, want %+v", got, want)
	}
	if iv.Targets[0].Jobs != 0 || iv.Cluster.Peers[0].Hits != 0 || iv.JobsRun != 0 {
		t.Errorf("what did not move is not zero: %+v", iv)
	}

	// No earlier snapshot at all: the interval is the lifetime.
	var m Metrics
	m.Add(JobsRun, 3)
	m.Observe(StageRun, time.Millisecond)
	life := m.Snapshot()
	if iv := life.Sub(Snapshot{}); iv.JobsRun != 3 || iv.Stages["run"].Count != 1 || !reflect.DeepEqual(iv.Stages["run"], life.Stages["run"]) {
		t.Errorf("interval from nothing: %+v", iv)
	}
}
