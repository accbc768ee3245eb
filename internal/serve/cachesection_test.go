package serve

import (
	"reflect"
	"testing"

	"omniware/internal/mcache"
	"omniware/internal/serve/metrics"
)

// The cache's counters all reach the snapshot: give every numeric
// field of mcache.Stats a value of its own, map them, and find each
// value in exactly one Snapshot field. The two counters the snapshot
// does not report are listed; any other one missing reads zero on
// /v1/metrics however often the cache counts it.
func TestCacheSectionCoversStats(t *testing.T) {
	internalOnly := map[string]bool{"Lookups": true, "Inserts": true}

	var cs mcache.Stats
	csv := reflect.ValueOf(&cs).Elem()
	want := map[int64]string{}
	for i := 0; i < csv.NumField(); i++ {
		v := int64(1000 + i)
		switch f := csv.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(v))
		case reflect.Int, reflect.Int64:
			f.SetInt(v)
		default:
			t.Fatalf("mcache.Stats.%s: unexpected kind %s", csv.Type().Field(i).Name, f.Kind())
		}
		want[v] = csv.Type().Field(i).Name
	}

	var snap metrics.Snapshot
	cacheSection(&snap, cs)
	sv := reflect.ValueOf(snap)
	for i := 0; i < sv.NumField(); i++ {
		var v int64
		switch f := sv.Field(i); f.Kind() {
		case reflect.Uint64:
			v = int64(f.Uint())
		case reflect.Int64:
			v = f.Int()
		default:
			continue
		}
		if v == 0 {
			continue
		}
		name, ok := want[v]
		if !ok {
			t.Errorf("Snapshot.%s = %d: not a Stats value, or mapped twice", sv.Type().Field(i).Name, v)
		}
		if internalOnly[name] {
			t.Errorf("Stats.%s is listed internal-only but reaches Snapshot.%s", name, sv.Type().Field(i).Name)
		}
		delete(want, v)
	}
	for _, name := range want {
		if !internalOnly[name] {
			t.Errorf("mcache.Stats.%s reaches no Snapshot field", name)
		}
		delete(internalOnly, name)
	}
	for name := range internalOnly {
		t.Errorf("internal-only list names %s, which mcache.Stats does not have or the mapping now covers", name)
	}
}
