package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/edmserved from the repository at root into
// out. It runs once per run, before anything is timed.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/edmserved")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building ./cmd/edmserved in %s: %w", root, err)
	}
	return nil
}

// child is one daemon process under test.
type child struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	logPath string
	started time.Time
	exited  chan struct{} // closed once the process has been reaped
	waitErr error
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startChild execs bin with args plus a fresh -addr, logging its output to
// logPath.
func startChild(bin string, args []string, dataDir, logPath string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, daemonArgs(addr, dataDir)...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	c := &child{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitHealthy polls /healthz until the daemon answers 200.
func (c *child) waitHealthy(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("daemon exited during start-up (%v): %s", c.waitErr, c.logTail())
		default:
		}
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy within %v: %s", timeout, c.logTail())
}

// kill stops the daemon with SIGKILL, as a crash would, and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-c.exited
}

// stop asks the daemon to drain with SIGTERM, falling back to SIGKILL.
func (c *child) stop(grace time.Duration) error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.exited:
		return c.waitErr
	case <-time.After(grace):
		c.kill()
		return fmt.Errorf("daemon did not drain within %v", grace)
	}
}

func (c *child) logTail() string {
	raw, _ := os.ReadFile(c.logPath) // best effort: only decorates an error
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return strings.TrimSpace(string(raw))
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks.
func (c *child) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseCPUTicks(raw)
}

// parseCPUTicks reads utime+stime from a /proc/<pid>/stat line. The
// command name may hold spaces, so fields are counted after its ')'.
func parseCPUTicks(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 on every architecture Go supports.
const clockTicks = 100

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// copyDir copies the regular files of src into a new directory dst,
// recursing into subdirectories.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}
