package obs

import "testing"

// streamIDs reproduces traceID's generator from an explicit seed: the
// splitmix64 step over a counter starting at seed. It mirrors the production
// path exactly so the collision test exercises the real construction.
func streamIDs(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	z := seed
	for i := range out {
		z += 0x9e3779b97f4a7c15
		out[i] = mix64(z)
	}
	return out
}

// TestTraceSeedFleetUnique is the regression for the process-unique-only
// trace IDs: two replicas forked in the same nanosecond (identical clock
// reading, different PIDs) must not walk overlapping ID streams. Before the
// PID mix-in both processes seeded the counter with the bare nanosecond and
// produced byte-identical ID sequences.
func TestTraceSeedFleetUnique(t *testing.T) {
	const nano = int64(1754600000123456789)
	const n = 50000
	pids := []int{1, 2, 4242, 4243, 65535}
	seen := make(map[uint64]int, n*len(pids))
	for _, pid := range pids {
		seed := traceSeed(nano, pid)
		for _, id := range streamIDs(seed, n) {
			if prev, dup := seen[id]; dup {
				t.Fatalf("trace ID %016x collides between pid %d and pid %d (same-nanosecond start)", id, prev, pid)
			}
			seen[id] = pid
		}
	}
	// And the old failure mode stays covered: identical (nano, pid) is the
	// same process, so identical streams there are expected.
	a, b := traceSeed(nano, 77), traceSeed(nano, 77)
	if a != b {
		t.Fatalf("traceSeed not deterministic: %x vs %x", a, b)
	}
}

// TestTraceSeedSpreadsNeighbors checks adjacent seconds/PIDs land far apart:
// the finalizer must decorrelate near-identical inputs, or a fleet launched
// by one supervisor (sequential PIDs, same instant) degenerates to offset
// streams that collide after few requests.
func TestTraceSeedSpreadsNeighbors(t *testing.T) {
	base := traceSeed(1000, 100)
	for _, d := range []struct {
		nano int64
		pid  int
	}{{1001, 100}, {1000, 101}, {1001, 101}} {
		s := traceSeed(d.nano, d.pid)
		diff := s - base
		if diff > 1<<62 { // treat as signed distance
			diff = -diff
		}
		if diff < 1<<32 {
			t.Fatalf("seeds for (%d,%d) and (1000,100) only %d apart", d.nano, d.pid, diff)
		}
	}
}

func TestNewTraceWithAdoptsID(t *testing.T) {
	tr := NewTraceWith("deadbeefcafef00d")
	if tr.ID != "deadbeefcafef00d" {
		t.Fatalf("NewTraceWith ignored the propagated ID: %q", tr.ID)
	}
	tr.Mark(testStage("only"))
	if got := len(traceStages(tr)); got != 1 {
		t.Fatalf("adopted trace not usable: %d stages", got)
	}
	minted := NewTraceWith("")
	if minted.ID == "" || minted.ID == tr.ID {
		t.Fatalf("empty id must mint a fresh one, got %q", minted.ID)
	}
	if NewTraceID() == "" || NewTraceID() == NewTraceID() {
		t.Fatal("NewTraceID must mint distinct non-empty IDs")
	}
}
