//go:build !race

package httpwire

const raceEnabled = false
