package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// child is one server process the benchmark started: this binary re-executed
// in a -role. It reports its port on stdout, has the rest of its output
// captured, and exits when its stdin closes — so it cannot outlive the
// benchmark whichever way the benchmark ends.
type child struct {
	role  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *portWriter
	port  int
	done  chan struct{} // closed once Wait returned
}

// portWriter captures a child's output and signals the "PORT <n>" line.
type portWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	port chan int
	seen bool
}

func (w *portWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.seen {
		if line, _, ok := strings.Cut(w.buf.String(), "\n"); ok {
			w.seen = true
			port, _ := strconv.Atoi(strings.TrimPrefix(line, "PORT "))
			w.port <- port // buffered: never blocks
		}
	}
	return len(p), nil
}

func (w *portWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// children registers every running child so that a signal can reap them, and
// every pid ever started so that a test can check none is left.
var children struct {
	mu      sync.Mutex
	running []*child
	pids    []int
}

// spawn starts this binary in a role and waits for its port.
func spawn(role string, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &child{
		role: role,
		cmd:  exec.Command(exe, append([]string{"-role", role}, args...)...),
		out:  &portWriter{port: make(chan int, 1)},
		done: make(chan struct{}),
	}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	c.cmd.Stdout = c.out
	c.cmd.Stderr = c.out
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	children.mu.Lock()
	children.running = append(children.running, c)
	children.pids = append(children.pids, c.cmd.Process.Pid)
	children.mu.Unlock()
	go func() {
		c.cmd.Wait() //nolint:errcheck // a killed child is the normal end
		close(c.done)
	}()
	select {
	case c.port = <-c.out.port:
		if c.port <= 0 {
			c.stop()
			return nil, fmt.Errorf("%s reported no port; its output:\n%s", role, c.out.String())
		}
		return c, nil
	case <-c.done:
		c.stop()
		return nil, fmt.Errorf("%s exited before listening; its output:\n%s", role, c.out.String())
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not report a port in 20 s; its output:\n%s", role, c.out.String())
	}
}

func (c *child) addr() string { return "127.0.0.1:" + strconv.Itoa(c.port) }
func (c *child) url() string  { return "http://" + c.addr() }
func (c *child) pid() int     { return c.cmd.Process.Pid }

// stop ends the child and returns once it has been reaped: closing stdin
// asks it to exit, a kill follows if it has not within two seconds.
func (c *child) stop() {
	c.stdin.Close()
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-c.done
	}
	children.mu.Lock()
	for i, r := range children.running {
		if r == c {
			children.running = append(children.running[:i], children.running[i+1:]...)
			break
		}
	}
	children.mu.Unlock()
}

// killChildren is the signal path: kill everything still running.
func killChildren() {
	children.mu.Lock()
	all := append([]*child(nil), children.running...)
	children.mu.Unlock()
	for _, c := range all {
		c.cmd.Process.Kill() //nolint:errcheck
		<-c.done
	}
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 for every
// architecture Go supports.
const clockTick = 100

// procCPU returns the CPU time (user + system) a process has used so far,
// or false where /proc is absent.
func procCPU(pid int) (time.Duration, bool) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, false
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return time.Duration(utime+stime) * time.Second / clockTick, true
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB, or false
// where /proc is absent.
func procPeakRSS(pid int) (float64, bool) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}
