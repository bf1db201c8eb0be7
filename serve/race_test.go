//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so tests that count allocations cannot hold.
const raceEnabled = true
