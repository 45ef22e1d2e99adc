package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// daemon is one running rapd child fed through its stdin.
type daemon struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	logs    *logSink
	addr    string
	spawned time.Time
	ready   time.Time // first /healthz 200
	done    chan struct{}
	waitErr error
	hwm     chan int64 // peak RSS in bytes, sent once after exit
}

// startDaemon spawns rapd with args and waits until /healthz answers 200.
// The admin address comes from the "admin listening" log line, so rapd can
// bind an ephemeral port.
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, error) {
	d := &daemon{logs: newLogSink(), done: make(chan struct{}), hwm: make(chan int64, 1)}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.logs
	// The kernel kills rapd if the benchmark dies first, so no run leaks a
	// daemon.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := d.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	d.stdin = stdin
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rapd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	go d.pollHWM()

	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, fmt.Errorf("%w; rapd log tail:\n%s", err, d.logs.tail())
	}
	select {
	case d.addr = <-d.logs.addr:
	case <-d.done:
		return fail(fmt.Errorf("rapd exited before listening: %v", d.waitErr))
	case <-ctx.Done():
		return fail(ctx.Err())
	case <-time.After(30 * time.Second):
		return fail(errors.New("rapd never logged its admin address"))
	}
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("/healthz never answered 200 (last error %v)", err))
		}
		select {
		case <-d.done:
			return fail(fmt.Errorf("rapd exited during start-up: %v", d.waitErr))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) setup() time.Duration { return d.ready.Sub(d.spawned) }

// finish closes stdin, so rapd drains its queues, writes its final
// checkpoint and exits, and waits for that.
func (d *daemon) finish(timeout time.Duration) error {
	d.stdin.Close()
	select {
	case <-d.done:
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("rapd did not exit within %v after end of input", timeout)
	}
	if d.waitErr != nil {
		return fmt.Errorf("rapd: %v; log tail:\n%s", d.waitErr, d.logs.tail())
	}
	return nil
}

// kill stops rapd and waits until it has exited.
func (d *daemon) kill() {
	d.stdin.Close()
	d.cmd.Process.Kill()
	<-d.done
}

// peakRSS returns rapd's peak RSS in bytes. Valid after exit.
func (d *daemon) peakRSS() int64 { return <-d.hwm }

// pollHWM samples rapd's VmHWM until it exits and then sends the last
// value. The wait4 rusage cannot be used: Go spawns children with vfork,
// and Linux folds the spawning process's own peak RSS into the child's
// ru_maxrss at exec.
func (d *daemon) pollHWM() {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var hwm int64
	for {
		select {
		case <-d.done:
			d.hwm <- hwm
			return
		case <-tick.C:
			hwm = max(hwm, readHWM(path))
		}
	}
}

// readHWM returns the VmHWM of a /proc status file in bytes, 0 if absent.
func readHWM(path string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	var kb int64
	fmt.Sscan(string(rest), &kb)
	return kb * 1024
}

var listenRE = regexp.MustCompile(`msg="admin listening".* addr=(\S+)`)

// logSink receives rapd's stderr: it reports the admin address once and
// keeps the last lines for error messages.
type logSink struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	addr    chan string
	sent    bool
}

func newLogSink() *logSink { return &logSink{addr: make(chan string, 1)} }

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partial = append(s.partial, p...)
	for {
		i := bytes.IndexByte(s.partial, '\n')
		if i < 0 {
			break
		}
		line := string(s.partial[:i])
		s.partial = s.partial[i+1:]
		if !s.sent {
			if m := listenRE.FindStringSubmatch(line); m != nil {
				s.addr <- m[1]
				s.sent = true
			}
		}
		s.lines = append(s.lines, line)
		if len(s.lines) > 40 {
			s.lines = s.lines[len(s.lines)-40:]
		}
	}
	return len(p), nil
}

func (s *logSink) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b bytes.Buffer
	for _, l := range s.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// buildRapd compiles ./cmd/rapd of the tree under test into dir.
func buildRapd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "rapd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rapd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rapd: %w", err)
	}
	return bin, nil
}
