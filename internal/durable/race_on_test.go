//go:build race

package durable_test

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts taken under it are not the program's.
const raceEnabled = true
