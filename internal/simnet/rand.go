package simnet

import (
	"hash/fnv"
	"math/rand/v2"
)

// NewRand returns a deterministic PCG-backed generator for the given seed.
// Every stochastic decision in the repository flows from generators created
// here, so a (seed, scale) pair reproduces a world bit-for-bit.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// SubRand derives an independent generator from a parent seed and a label,
// so distinct subsystems (population, crawler, monitors, ...) consume
// decoupled random streams: adding draws in one never perturbs another.
func SubRand(seed uint64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return NewRand(seed ^ h.Sum64())
}
