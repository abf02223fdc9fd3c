//go:build race

package mcpool

// Under the race detector sync.Pool deliberately drops puts to widen
// race coverage, so the pooled-future path cannot stay alloc-free;
// allocation gates are skipped in race builds.
const raceEnabled = true
