//go:build race

package proxynet

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so tests that count on a pooled buffer coming back skip.
const raceEnabled = true
