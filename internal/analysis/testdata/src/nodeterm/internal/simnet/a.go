// Fixture: internal/simnet joined the nodeterm scope — transfer times are a
// pure function of the curve and the message size.
package simnet

import (
	crand "crypto/rand"
	"time"
)

func transferTime(bytes, latency, bandwidth float64) float64 {
	return latency + bytes/bandwidth
}

func deadline(d time.Duration) time.Time {
	return time.Now().Add(d) // want `time.Now reads the wall clock`
}

func nonce(b []byte) {
	crand.Read(b) // want `crypto/rand is inherently nondeterministic`
}
