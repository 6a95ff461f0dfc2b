//go:build !race

package infer

// raceEnabled: see race_test.go.
const raceEnabled = false
