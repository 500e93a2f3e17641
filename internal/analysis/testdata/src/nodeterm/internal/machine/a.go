// Fixture: internal/machine joined the nodeterm scope — kernel times are a
// pure function of the PE model and the operand sizes.
package machine

import (
	"math/rand"
	"time"
)

func kernelTime(flops, rate float64) float64 {
	return flops / rate
}

func noisyKernelTime(flops, rate float64) float64 {
	return flops / rate * (1 + rand.NormFloat64()) // want `global random source`
}

func measured(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want `time.Since reads the wall clock`
}
