package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// treeHash fingerprints the source the served binary is built from: every
// .go file and go.mod under root outside the benchmark's own build output
// and the benchmark package. It is stamped into the binary as its build SHA,
// and the benchmark refuses to measure a server reporting anything else.
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("walk source tree: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hash source: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}

// buildServer compiles cmd/cardnet from the checkout at root into bin, with
// sha stamped as its build identity.
func buildServer(root, bin, sha string) error {
	cmd := exec.Command("go", "build", "-trimpath", "-ldflags", "-X main.buildSHA="+sha, "-o", bin, "./cmd/cardnet")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build cmd/cardnet: %w", err)
	}
	return nil
}

// server is one spawned `cardnet -mode serve` process.
type server struct {
	cmd   *exec.Cmd
	base  string
	log   *os.File
	done  chan struct{}
	err   error
	setup time.Duration // spawn until the first 200 from /healthz
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server on the model with extra flags and blocks
// until /healthz answers 200. The child is killed if the benchmark dies.
func startServer(bin, model, logPath string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("server log: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-mode", "serve", "-model", model, "-addr", addr}, extra...)
	s := &server{base: "http://" + addr, log: lf, done: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = lf
	s.cmd.Stderr = lf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-s.done:
			lf.Close()
			return nil, fmt.Errorf("server exited during start-up: %v (log %s)", s.err, logPath)
		default:
		}
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not healthy after 60s (log %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within 10s, and waits for the process to end.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// get fetches path and returns the body of a 200 answer.
func (s *server) get(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (s *server) metrics() (*metricsSnap, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// heap returns the server's MemStats header, after a forced GC when gc is
// set.
func (s *server) heap(gc bool) (heapHeader, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	body, err := s.get(path)
	if err != nil {
		return heapHeader{}, err
	}
	return parseHeapProfile(string(body))
}

// cpuTicks reads the server's utime+stime from /proc.
func (s *server) cpuTicks() (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.pid()) + "/stat")
	if err != nil {
		return 0, fmt.Errorf("read server cpu time: %w", err)
	}
	return procCPUTicks(string(b))
}

// buildSHA returns the sha label of the server's cardnet.build.info metric.
func (s *server) buildSHA() (string, error) {
	m, err := s.metrics()
	if err != nil {
		return "", err
	}
	sha := m.Info["cardnet.build.info"]["sha"]
	if sha == "" {
		return "", errors.New("server reports no cardnet.build.info sha")
	}
	return sha, nil
}

// reload asks the server to hot-swap to the model at path.
func (s *server) reload(c *http.Client, path string) error {
	body, _ := json.Marshal(map[string]string{"path": path})
	resp, err := c.Post(s.base+"/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}
