package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// CPU placement. On a small host the kernel's choice of where the
// daemon's and the generator's threads run decides a closed loop's rate
// as much as the daemon's code does, and it changes from run to run. The
// benchmark removes that choice: the server under load runs on one CPU,
// the generator on the others, so dns_qps and http_qps read as queries
// per second *per daemon core*.

// cpuSet is a kernel CPU mask (1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// threadAffinity returns the calling thread's CPU mask.
func threadAffinity() (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, errno
	}
	return s, nil
}

// setThreadAffinity pins the calling thread (and every process or thread
// it creates from now on).
func setThreadAffinity(s cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// placement is where the serve leg's two sides run.
type placement struct {
	server    cpuSet // one CPU: clientmapd, or the echo stub in its place
	generator cpuSet // every other CPU the benchmark may use
	split     bool   // false on a one-CPU host: nothing is pinned
}

func newPlacement() placement {
	allowed, err := threadAffinity()
	cpus := allowed.list()
	if err != nil || len(cpus) < 2 {
		return placement{}
	}
	var p placement
	p.split = true
	p.server.set(cpus[0])
	for _, c := range cpus[1:] {
		p.generator.set(c)
	}
	return p
}

// serverCPUs is the mask to start the server side under, nil where
// nothing is pinned.
func (p placement) serverCPUs() *cpuSet {
	if !p.split {
		return nil
	}
	return &p.server
}

// pinGenerator binds the calling goroutine to a thread of its own on the
// generator's CPUs. The goroutine must exit without unlocking, which
// ends the thread and with it the pinning.
func (p placement) pinGenerator() {
	if !p.split {
		return
	}
	runtime.LockOSThread()
	setThreadAffinity(p.generator) // on failure the thread simply stays unpinned
}
