package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
)

// This file is the one serving child every process-level drill (wal,
// overload, dr, tenants) runs against: a re-exec'd copy of the current
// binary that builds a durable edmserved from its drill's
// server.Config, publishes its bound address, and then waits for
// signals — SIGKILL is the crash, SIGTERM the graceful drain, and
// SIGUSR1/SIGUSR2 turn the drill's fault on and off.

const (
	// ChildEnv names the drill a re-exec'd process serves as its
	// child. cmd/edmbench and the bench test binary check it before
	// anything else and divert to RunChild when it is set.
	ChildEnv = "EDMBENCH_CHILD"
	// childSpecEnv carries the child's JSON-encoded childSpec.
	childSpecEnv = "EDMBENCH_CHILD_SPEC"
)

// childSpec is everything a parent tells its child: where the state
// lives, where to publish the bound address, the engine's stream rate,
// and whether to restore from the remote archive first.
type childSpec struct {
	DataDir   string  `json:"data_dir"`
	RemoteDir string  `json:"remote_dir"`
	AddrFile  string  `json:"addr_file"`
	Rate      float64 `json:"rate"`
	Restore   bool    `json:"restore"`
}

// childDrill builds one drill's server configuration (the child fills
// in the listen address and data dir) and, for a drill with a fault,
// the toggle SIGUSR1 (on) and SIGUSR2 (off) drive.
type childDrill func(spec childSpec) (cfg server.Config, fault func(on bool), err error)

// childDrills is the drill table: the child of every process-level
// drill, by the name ChildEnv carries.
var childDrills = map[string]childDrill{
	"wal":      walChild,
	"overload": overloadChild,
	"dr":       drChild,
	"tenants":  tenantsChild,
}

// RunChild serves as the child of the drill named by ChildEnv until a
// SIGTERM or SIGINT drains it. It publishes its address only after
// server.New returned — after recovery and any restore — so the
// parent's poll on the addr file doubles as a recovery barrier.
func RunChild() error {
	name := os.Getenv(ChildEnv)
	drill, ok := childDrills[name]
	if !ok {
		return fmt.Errorf("bench: unknown child drill %q", name)
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(os.Getenv(childSpecEnv)), &spec); err != nil {
		return fmt.Errorf("bench: %s: %w", childSpecEnv, err)
	}
	if spec.DataDir == "" || spec.AddrFile == "" {
		return errors.New("bench: the child spec needs a data dir and an addr file")
	}
	cfg, fault, err := drill(spec)
	if err != nil {
		return err
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.DataDir = spec.DataDir
	c, err := edmstream.New(walOptions(spec.Rate))
	if err != nil {
		return err
	}
	srv, err := server.New(c, cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	if err := publishAddr(spec.AddrFile, srv.Addr()); err != nil {
		return err
	}

	// Room for a fault toggle and its reversal plus the final SIGTERM:
	// signal.Notify drops signals a full channel cannot take.
	ch := make(chan os.Signal, 4)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1, syscall.SIGUSR2)
	for sig := <-ch; sig == syscall.SIGUSR1 || sig == syscall.SIGUSR2; sig = <-ch {
		if fault != nil {
			fault(sig == syscall.SIGUSR1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// publishAddr atomically writes a child's bound address to the file
// the parent polls (write-then-rename: the parent never reads a torn
// file).
func publishAddr(addrFile, addr string) error {
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, addrFile)
}

// newChildSpec lays a drill's child state out under a fresh temporary
// directory, which the caller removes.
func newChildSpec(drill string, rate float64) (spec childSpec, dir string, err error) {
	dir, err = os.MkdirTemp("", "edmbench-"+drill+"-")
	if err != nil {
		return childSpec{}, "", err
	}
	return childSpec{
		DataDir:   filepath.Join(dir, "data"),
		RemoteDir: filepath.Join(dir, "remote"),
		AddrFile:  filepath.Join(dir, "addr"),
		Rate:      rate,
	}, dir, nil
}

// benchChild is a running drill child, as its parent drives it.
type benchChild struct {
	cmd *exec.Cmd
	url string // http://<bound address>
	// exited is closed once cmd.Wait returned; err is its result.
	exited chan struct{}
	err    error
}

// startChild re-execs this binary as the given drill's child and
// waits for it to publish its address. A returned child has finished
// recovering, so startChild's wall time is the whole restart.
func startChild(drill string, spec childSpec) (*benchChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: locating own executable for the %s child: %w", drill, err)
	}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	_ = os.Remove(spec.AddrFile)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), ChildEnv+"="+drill, childSpecEnv+"="+string(rawSpec))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting the %s child: %w", drill, err)
	}
	ch := &benchChild{cmd: cmd, exited: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.exited)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(spec.AddrFile); err == nil && len(raw) > 0 {
			ch.url = "http://" + string(raw)
			return ch, nil
		}
		if time.Now().After(deadline) {
			ch.kill()
			return nil, fmt.Errorf("bench: the %s child did not report an address within 30s", drill)
		}
		select {
		case <-ch.exited:
			return nil, fmt.Errorf("bench: the %s child exited before binding: %v", drill, ch.err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// kill SIGKILLs the child — the crash: no flush, no goodbye — and
// waits for it. On a child that already exited it is a no-op, so it
// doubles as deferred cleanup.
func (c *benchChild) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// stop SIGTERMs the child and requires its graceful drain to exit 0.
func (c *benchChild) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	<-c.exited
	return c.err
}

// fault turns the child's drill fault on (SIGUSR1) or off (SIGUSR2).
func (c *benchChild) fault(on bool) error {
	sig := syscall.SIGUSR2
	if on {
		sig = syscall.SIGUSR1
	}
	return c.cmd.Process.Signal(sig)
}
