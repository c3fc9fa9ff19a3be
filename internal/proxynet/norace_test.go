//go:build !race

package proxynet

const raceEnabled = false
