package main

import (
	"errors"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// blockingConn is a socket read and written with blocking system calls
// rather than through the Go runtime's network poller. A reply then
// wakes the waiting thread straight from the kernel; through the poller
// it waits for a scheduler round, which on a small host costs more than
// the daemon spends answering and would make the generator, not the
// daemon, the thing measured.
type blockingConn struct {
	f  *os.File
	fd int
}

// fileConn is what *net.UDPConn and *net.TCPConn share.
type fileConn interface {
	File() (*os.File, error)
	Close() error
}

// newBlockingConn takes over c's socket; reads time out after timeout.
func newBlockingConn(c fileConn, timeout time.Duration) (*blockingConn, error) {
	f, err := c.File() // a duplicate descriptor
	c.Close()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd()) // Fd puts the descriptor in blocking mode
	tv := syscall.NsecToTimeval(int64(timeout))
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		f.Close()
		return nil, os.NewSyscallError("setsockopt", err)
	}
	return &blockingConn{f: f, fd: fd}, nil
}

func dialBlocking(network, addr string, timeout time.Duration) (*blockingConn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return newBlockingConn(c.(fileConn), timeout)
}

// Read returns os.ErrDeadlineExceeded when nothing arrives in time.
func (c *blockingConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR: // the runtime's own signals
			continue
		case err == syscall.EAGAIN:
			return 0, os.ErrDeadlineExceeded
		case err != nil:
			return 0, os.NewSyscallError("read", err)
		case n == 0 && len(p) > 0:
			return 0, errors.New("connection closed by peer")
		}
		return n, nil
	}
}

// tryRead is Read that never waits: any is false when nothing is queued
// (or the read failed; the next blocking Read reports that).
func (c *blockingConn) tryRead(p []byte) (n int, any bool) {
	r, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, uintptr(c.fd), uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)), syscall.MSG_DONTWAIT, 0, 0)
	if errno != 0 {
		return 0, false
	}
	return int(r), true
}

func (c *blockingConn) Write(p []byte) (int, error) {
	for {
		n, err := syscall.Write(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return n, os.NewSyscallError("write", err)
		}
		return n, nil
	}
}

func (c *blockingConn) Close() error { return c.f.Close() }
