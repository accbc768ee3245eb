//go:build race

package main

// Under the race detector sync.Pool drops items at random, so the
// pooled-host path allocates and core.exec_allocs_per_op is not 0.
const raceEnabled = true
