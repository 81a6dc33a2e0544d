package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every process the benchmark starts and the temp root all of
// its state lives under, so that each exit path — normal return, failed
// check, SIGINT — kills and reaps the children and removes the state. An
// aborted run must not leave a daemon behind to skew the next one.
type procs struct {
	mu      sync.Mutex
	running map[*exec.Cmd]struct{}
	tmpRoot string
	// spawn runs cmd.Start on one OS thread that lives as long as the
	// benchmark: Pdeathsig fires when the *thread* that forked exits,
	// and the Go runtime retires idle threads.
	spawn chan func()
}

func newProcs() *procs {
	p := &procs{running: make(map[*exec.Cmd]struct{}), spawn: make(chan func())}
	go func() {
		runtime.LockOSThread()
		for f := range p.spawn {
			f()
		}
	}()
	return p
}

// start launches cmd in its own process group with a parent-death
// signal, so neither a terminal ^C nor a crash of the benchmark leaves it
// running.
func (p *procs) start(cmd *exec.Cmd) error { return p.startOn(cmd, nil) }

// startOn is start with the child confined to the given CPUs (nil: no
// confinement). A child inherits the mask of the thread that forks it.
func (p *procs) startOn(cmd *exec.Cmd, cpus *cpuSet) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	done := make(chan error, 1)
	p.spawn <- func() {
		if cpus != nil {
			if old, err := threadAffinity(); err == nil && setThreadAffinity(*cpus) == nil {
				defer setThreadAffinity(old)
			}
		}
		done <- cmd.Start()
	}
	if err := <-done; err != nil {
		return fmt.Errorf("starting %s: %w", filepath.Base(cmd.Path), err)
	}
	p.mu.Lock()
	p.running[cmd] = struct{}{}
	p.mu.Unlock()
	return nil
}

// wait reaps cmd and forgets it.
func (p *procs) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	p.mu.Lock()
	delete(p.running, cmd)
	p.mu.Unlock()
	return err
}

// stop asks cmd to exit with sig, kills its whole group if it has not
// within grace, and reaps it.
func (p *procs) stop(cmd *exec.Cmd, sig syscall.Signal, grace time.Duration) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(sig)
	done := make(chan struct{})
	go func() {
		p.wait(cmd)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
	}
}

// cleanup kills and reaps every child still running and removes the temp
// root. Safe to call more than once.
func (p *procs) cleanup() {
	p.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(p.running))
	for c := range p.running {
		cmds = append(cmds, c)
	}
	p.mu.Unlock()
	for _, c := range cmds {
		p.stop(c, syscall.SIGKILL, time.Second)
	}
	if p.tmpRoot != "" {
		os.RemoveAll(p.tmpRoot)
	}
}

// onSignal runs cleanup and exits when the benchmark is interrupted.
func (p *procs) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		p.cleanup()
		os.Exit(130)
	}()
}

// mkTempRoot creates the one directory all temp state of this run lives
// under, inside buildDir so the benchmark never writes outside its
// checkout.
func (p *procs) mkTempRoot(buildDir string) error {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	// A run that was killed outright could not remove its root: sweep the
	// roots whose owning process is gone.
	if entries, err := os.ReadDir(base); err == nil {
		for _, e := range entries {
			var pid int
			if _, err := fmt.Sscanf(e.Name(), "run-%d-", &pid); err == nil && syscall.Kill(pid, 0) == syscall.ESRCH {
				os.RemoveAll(filepath.Join(base, e.Name()))
			}
		}
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return err
	}
	p.tmpRoot = dir
	return nil
}

// childCPU returns the user+system CPU seconds the kernel accounted to a
// reaped child.
func childCPU(cmd *exec.Cmd) float64 {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPU returns the CPU seconds a live process has used so far: the
// sum of its threads' on-CPU time from the scheduler's own nanosecond
// accounting (utime/stime in /proc/<pid>/stat are sampled at the 10 ms
// tick, too coarse for a quarter-second slice).
func procCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat", pid)
	}
	var ns uint64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s", t)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// procPeakRSSMiB returns a live process's VmHWM: the peak resident size
// of its own address space, counted from its exec.
func procPeakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) >= 1 {
				kb, err := strconv.ParseFloat(fs[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// server is a child that serves on loopback and announces its bound
// addresses on stderr: clientmapd, or the benchmark's own echo stub.
type server struct {
	cmd   *exec.Cmd
	addrs map[string]string
	tail  *tailBuffer
}

// tailBuffer keeps the last few KiB a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8192 {
		t.buf = t.buf[len(t.buf)-8192:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startServer launches cmd and reads its stderr until every marker in
// want (key → text that precedes the address on its line) has appeared.
func (p *procs) startServer(cmd *exec.Cmd, cpus *cpuSet, want map[string]string) (*server, error) {
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.startOn(cmd, cpus); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addrs: make(map[string]string), tail: &tailBuffer{}}
	found := make(chan error, 1)
	go func() {
		rd := bufio.NewReader(io.TeeReader(stderr, s.tail))
		reported := false
		for {
			line, err := rd.ReadString('\n')
			if !reported {
				for key, marker := range want {
					if i := strings.Index(line, marker); i >= 0 {
						f := strings.Fields(line[i+len(marker):])
						if len(f) > 0 {
							s.addrs[key] = f[0]
						}
					}
				}
				if len(s.addrs) == len(want) {
					reported = true
					found <- nil
				}
			}
			if err != nil {
				if !reported {
					found <- fmt.Errorf("%s exited before announcing its addresses:\n%s", filepath.Base(cmd.Path), s.tail)
				}
				return
			}
		}
	}()
	select {
	case err := <-found:
		if err != nil {
			p.stop(cmd, syscall.SIGKILL, time.Second)
			return nil, err
		}
	case <-time.After(30 * time.Second):
		p.stop(cmd, syscall.SIGKILL, time.Second)
		return nil, fmt.Errorf("%s did not announce its addresses within 30s:\n%s", filepath.Base(cmd.Path), s.tail)
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }
