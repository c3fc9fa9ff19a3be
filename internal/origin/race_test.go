//go:build race

package origin

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so tests that count on a pooled connection coming back
// skip.
const raceEnabled = true
