//go:build unix

package checkpoint

import (
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestReadRefusesNonRegularFile: a FIFO path (as /admin/reload may be given)
// is refused with an error instead of blocking the reader forever. The
// deadline turns a hang into a failure.
func TestReadRefusesNonRegularFile(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "model.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	for name, read := range map[string]func() error{
		"LoadModel": func() error { _, err := LoadModel(fifo); return err },
		"ReadFile":  func() error { _, err := ReadFile(fifo, KindModel); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- read() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s accepted a FIFO", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked on a FIFO after 5s", name)
		}
	}
}
