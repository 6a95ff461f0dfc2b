//go:build !race

package tensor

// raceEnabled: see race_test.go.
const raceEnabled = false
