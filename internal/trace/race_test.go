//go:build race

package trace

// raceEnabled: the race detector adds allocations of its own, so tests that
// hold a path to an allocation count skip.
const raceEnabled = true
