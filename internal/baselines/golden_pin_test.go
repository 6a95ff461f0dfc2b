//go:build linux && amd64 && !amd64.v2

package baselines

// goldenBitsPinned: this target (linux/amd64 at GOAMD64=v1, the default)
// never fuses multiply-add, so the golden hashes in golden_test.go hold.
const goldenBitsPinned = true
