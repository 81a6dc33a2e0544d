package dnsnet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// gateHandler holds the first query it sees until release closes,
// signalling its entry on enter, and answers every later query at once:
// the server runs a fixed number of loops, so a handler that held every
// query would hold every loop and leave none to refuse the late probes.
func gateHandler(enter chan struct{}, release chan struct{}) Handler {
	var held atomic.Bool
	return HandlerFunc(func(_ context.Context, _ netx.Addr, q *dnswire.Message) *dnswire.Message {
		if held.CompareAndSwap(false, true) {
			enter <- struct{}{}
			<-release
		}
		return q.Reply()
	})
}

// TestServerDrainWaitsForInflight is the no-drop guarantee: a query the
// server accepted before Drain began must get its response written even
// though the drain is already refusing new work.
func TestServerDrainWaitsForInflight(t *testing.T) {
	enter := make(chan struct{}, 1)
	release := make(chan struct{})
	s := NewServer(gateHandler(enter, release))
	addr, err := s.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type result struct {
		resp *dnswire.Message
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		cl := &UDPClient{Timeout: 10 * time.Second}
		resp, err := cl.Exchange(context.Background(), addr.String(),
			dnswire.NewQuery(7, "inflight.example", dnswire.TypeA))
		resCh <- result{resp, err}
	}()
	<-enter // the query is now held inside the handler

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(10 * time.Second) }()

	// Probe until the drain visibly refuses new queries — proof it has
	// begun while the first query is still in flight.
	probe := &UDPClient{Timeout: 20 * time.Millisecond}
	deadline := time.Now().Add(10 * time.Second)
	for s.DrainDropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drain never started refusing queries")
		}
		probe.Exchange(context.Background(), addr.String(),
			dnswire.NewQuery(8, "late.example", dnswire.TypeA))
	}
	close(release)

	if r := <-resCh; r.err != nil || r.resp == nil || r.resp.ID != 7 {
		t.Fatalf("in-flight query dropped mid-drain: resp=%+v err=%v", r.resp, r.err)
	}
	if !<-drained {
		t.Fatal("drain reported timeout with the handler released")
	}
	if s.DrainDropped() == 0 {
		t.Error("late queries should count on DrainDropped")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

// TestServerDrainTimeout: a handler that never finishes makes Drain
// give up after its timeout and report the abandoned work.
func TestServerDrainTimeout(t *testing.T) {
	enter := make(chan struct{}, 1)
	release := make(chan struct{})
	s := NewServer(gateHandler(enter, release))
	addr, err := s.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		cl := &UDPClient{Timeout: 5 * time.Second}
		cl.Exchange(context.Background(), addr.String(),
			dnswire.NewQuery(9, "stuck.example", dnswire.TypeA))
	}()
	<-enter

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(100 * time.Millisecond) }()
	// Drain's Close waits for the handler goroutine, so release it once
	// the timeout has certainly fired.
	time.Sleep(300 * time.Millisecond)
	close(release)
	if <-drained {
		t.Fatal("drain should report timeout while a handler is stuck")
	}
}

// TestServerDrainIdle: draining a quiet server returns immediately.
func TestServerDrainIdle(t *testing.T) {
	s := NewServer(gateHandler(make(chan struct{}, 1), nil))
	if _, err := s.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if !s.Drain(5 * time.Second) {
		t.Fatal("idle drain should succeed")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle drain took %s", elapsed)
	}
	if !s.Drain(time.Second) {
		t.Fatal("drain after close should be a clean no-op")
	}
}
