package profcap

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cardnet/internal/obs"
)

func fastCapturer(t *testing.T, reg *obs.Registry, retain int) *Capturer {
	t.Helper()
	c, err := New(Config{
		Dir:         t.TempDir(),
		Retain:      retain,
		Cooldown:    time.Nanosecond,
		CPUDuration: 10 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func listProfiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestCaptureWritesReadablePair(t *testing.T) {
	reg := obs.NewRegistry()
	c := fastCapturer(t, reg, 4)
	c.Trigger("page")
	c.Wait()

	names := listProfiles(t, c.cfg.Dir)
	if len(names) != 2 {
		t.Fatalf("capture produced %v, want one cpu+heap pair", names)
	}
	var sawCPU, sawHeap bool
	for _, name := range names {
		if !strings.HasPrefix(name, "profile-") || !strings.Contains(name, "-page.") {
			t.Fatalf("unexpected profile name %q", name)
		}
		raw, err := os.ReadFile(filepath.Join(c.cfg.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// pprof output is gzip: no checkpoint frame may wrap it.
		if len(raw) < 2 || !bytes.Equal(raw[:2], []byte{0x1f, 0x8b}) {
			t.Fatalf("%s does not start with gzip magic: % x", name, raw[:min(4, len(raw))])
		}
		switch {
		case strings.HasSuffix(name, ".cpu.pprof"):
			sawCPU = true
		case strings.HasSuffix(name, ".heap.pprof"):
			sawHeap = true
		}
	}
	if !sawCPU || !sawHeap {
		t.Fatalf("pair incomplete: %v", names)
	}
	if got := reg.Counter("profcap.captures").Value(); got != 1 {
		t.Fatalf("captures = %d", got)
	}
	if got := reg.Counter("profcap.errors").Value(); got != 0 {
		t.Fatalf("errors = %d", got)
	}
}

func TestRetentionPrunesOldestPairs(t *testing.T) {
	reg := obs.NewRegistry()
	c := fastCapturer(t, reg, 2)
	for i := 0; i < 5; i++ {
		c.Trigger("p99")
		c.Wait()
	}
	names := listProfiles(t, c.cfg.Dir)
	if len(names) != 4 {
		t.Fatalf("retention kept %d files (%v), want 2 pairs", len(names), names)
	}
	// Lexical order is chronological: the survivors are the newest stamps.
	if got := reg.Counter("profcap.captures").Value(); got != 5 {
		t.Fatalf("captures = %d", got)
	}
}

func TestCooldownDropsTriggers(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Dir:         t.TempDir(),
		Cooldown:    time.Hour,
		CPUDuration: 10 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time { return clock }

	c.Trigger("page")
	c.Wait()
	c.Trigger("page") // inside cooldown: dropped
	c.Wait()
	if got := reg.Counter("profcap.skipped").Value(); got != 1 {
		t.Fatalf("skipped = %d, want 1", got)
	}
	if got := reg.Counter("profcap.captures").Value(); got != 1 {
		t.Fatalf("captures = %d, want 1", got)
	}

	clock = clock.Add(2 * time.Hour) // cooldown elapsed
	c.Trigger("page")
	c.Wait()
	if got := reg.Counter("profcap.captures").Value(); got != 2 {
		t.Fatalf("captures after cooldown = %d, want 2", got)
	}
}

func TestTriggerNonBlockingWhileBusy(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Dir:         t.TempDir(),
		Cooldown:    time.Nanosecond,
		CPUDuration: 200 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Trigger("page")
	// While the 200ms CPU profile runs, triggers must return immediately
	// and count as skipped.
	start := time.Now()
	c.Trigger("page")
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("Trigger blocked for %v", elapsed)
	}
	c.Wait()
	if got := reg.Counter("profcap.captures").Value(); got != 1 {
		t.Fatalf("captures = %d", got)
	}
	if got := reg.Counter("profcap.skipped").Value(); got == 0 {
		t.Fatal("busy trigger was not counted as skipped")
	}
}

func TestNewRequiresDir(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty Dir")
	}
}
