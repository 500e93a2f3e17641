// Fixture: internal/hpl joined the nodeterm scope — the simulator's output
// is pinned byte for byte by the committed report, so run-to-run noise must
// come from a seeded stream.
package hpl

import (
	"math/rand"
	"time"
)

// runNoise is the sanctioned shape: a pure function of the seed.
func runNoise(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}

func jitter() float64 {
	return rand.Float64() // want `global random source`
}

func wallClock() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock`
}
