//go:build !race

package origin

const raceEnabled = false
