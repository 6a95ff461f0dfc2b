//go:build !(linux && amd64 && !amd64.v2)

package baselines

// goldenBitsPinned: other targets may fuse multiply-add (GOAMD64=v3, arm64,
// …), so their trained bits legitimately differ from the pinned hashes.
const goldenBitsPinned = false
