//go:build race

package tensor

// raceEnabled: the race detector makes sync.Pool drop a random share of the
// items put back, so pooled scratch reallocates and allocation counts drift.
const raceEnabled = true
