//go:build race

package core

// RaceEnabled skips the allocation-count guards: the race detector
// changes the allocation profile, and sync.Pool intentionally drops
// items under it, so allocs-per-run is not meaningful there.
const RaceEnabled = true
