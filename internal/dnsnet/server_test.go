package dnsnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// cannedAppender answers every query, in the append form, with the
// query's ID and a fixed body.
type cannedAppender struct{ body []byte }

func (c cannedAppender) ServeDNS(context.Context, netx.Addr, *dnswire.Message) *dnswire.Message {
	panic("the server must prefer the append form")
}

func (c cannedAppender) AppendDNS(dst []byte, _ netx.Addr, q *dnswire.Message) []byte {
	return append(binary.BigEndian.AppendUint16(dst, q.ID), c.body...)
}

// waitGoroutines waits for the goroutine count to come back down to
// base: a server goroutine that outlived Close would hold it above.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerStopsItsGoroutines: Close and Drain both return with every
// UDP loop, the accept loop and every connection goroutine gone — also
// the one serving a client that is connected and idle.
func TestServerStopsItsGoroutines(t *testing.T) {
	for name, stop := range map[string]func(*Server){
		"Close": func(s *Server) { s.Close() },
		"Drain": func(s *Server) { s.Drain(time.Second) },
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := NewServer(echoHandler(1))
			udp, err := s.ListenUDP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tcp, err := s.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			q := dnswire.NewQuery(1, "leak.test", dnswire.TypeA)
			if _, err := (&UDPClient{Timeout: 2 * time.Second}).Exchange(context.Background(), udp.String(), q); err != nil {
				t.Fatal(err)
			}
			cl := &TCPClient{Timeout: 2 * time.Second}
			defer cl.Close()
			if _, err := cl.Exchange(context.Background(), tcp.String(), q); err != nil {
				t.Fatal(err)
			}
			// cl's connection stays open and idle across the stop.
			stop(s)
			waitGoroutines(t, base)
		})
	}
}

// TestServerCutsOffStalledTCPPeer: a connection whose peer stops reading
// its replies, or stops sending and just sits there, is closed when the
// write or idle deadline passes rather than holding its goroutine for as
// long as the peer cares to stay. The peer is one end of a net.Pipe,
// which buffers nothing: an unread reply blocks the server's write at
// once, with no kernel socket buffer to fill first.
func TestServerCutsOffStalledTCPPeer(t *testing.T) {
	for name, stall := range map[string]func(t *testing.T, peer net.Conn){
		"never reads": func(t *testing.T, peer net.Conn) {
			if err := dnswire.WriteTCP(peer, dnswire.NewQuery(1, "stall.test", dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
		},
		"never writes": func(*testing.T, net.Conn) {},
	} {
		t.Run(name, func(t *testing.T) {
			s := NewServer(echoHandler(1))
			s.tcpIdle, s.tcpWrite = 50*time.Millisecond, 50*time.Millisecond
			defer s.Close()
			peer, conn := net.Pipe()
			defer peer.Close()
			done := make(chan struct{})
			s.wg.Add(1)
			go func() {
				s.serveConn(conn)
				close(done)
			}()
			stall(t, peer)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("server still holds the stalled connection")
			}
			peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read from the cut-off connection = %v, want EOF", err)
			}
		})
	}
}

// TestServerTCPAppendForm: a handler with the append form is served
// through it over TCP too, framed behind the length prefix.
func TestServerTCPAppendForm(t *testing.T) {
	s := NewServer(cannedAppender{body: []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0}})
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := &TCPClient{Timeout: 2 * time.Second}
	defer cl.Close()
	for id := uint16(7); id < 10; id++ {
		resp, err := cl.Exchange(context.Background(), addr.String(), dnswire.NewQuery(id, "append.test", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || !resp.Response {
			t.Fatalf("reply %+v to query %d", resp, id)
		}
	}
}

// TestServerUDPRoundTripAllocs is the transport's alloc gate: with a
// pre-encoded query on a connected socket and a handler in the append
// form, a loopback round trip — this side's write and read, the server
// loop's read, decode, handle and write — allocates at most once.
func TestServerUDPRoundTripAllocs(t *testing.T) {
	s := NewServer(cannedAppender{body: []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0}})
	addr, err := s.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, err := dnswire.NewQuery(0, "allocs.test", dnswire.TypeA).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 512)
	id := uint16(0)
	roundTrip := func() {
		id++
		binary.BigEndian.PutUint16(wire, id)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(reply)
		if err != nil {
			t.Fatal(err)
		}
		if n != 12 || binary.BigEndian.Uint16(reply) != id {
			t.Fatalf("reply %x to query %d", reply[:n], id)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip() // every loop has decoded the name once: it is interned
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs > 1 {
		t.Errorf("UDP round trip allocates %.2f per query, want <= 1", allocs)
	}
}

// TestSrcAddrUnmaps: a dual-stack wildcard socket reports an IPv4 peer
// as ::ffff:a.b.c.d; handlers (and the per-client limiter keyed on what
// they are handed) must see a.b.c.d, and zero only for real IPv6.
func TestSrcAddrUnmaps(t *testing.T) {
	want := netx.AddrFrom4(192, 0, 2, 7)
	for _, s := range []string{"192.0.2.7", "::ffff:192.0.2.7"} {
		if got := srcAddr(netip.MustParseAddr(s)); got != want {
			t.Errorf("srcAddr(%s) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"::1", "2001:db8::1"} {
		if got := srcAddr(netip.MustParseAddr(s)); got != 0 {
			t.Errorf("srcAddr(%s) = %v, want 0", s, got)
		}
	}
	if got := srcAddr(netip.Addr{}); got != 0 {
		t.Errorf("srcAddr(invalid) = %v, want 0", got)
	}
}

// TestServerCapsTCPConnections: with the connection cap at 4, a fifth
// idle connection is closed on accept while the first four stay served,
// and Close still returns every goroutine.
func TestServerCapsTCPConnections(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewServer(echoHandler(1))
	s.tcpMax = 4
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns = append(conns, conn)
	}
	over := conns[4]
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := over.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read from the connection over the cap = %v, want it closed", err)
	}
	for i, conn := range conns[:4] {
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := dnswire.WriteTCP(conn, dnswire.NewQuery(uint16(i), "cap.test", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
		var resp dnswire.Message
		if err := dnswire.ReadTCPInto(conn, &resp); err != nil || resp.ID != uint16(i) {
			t.Fatalf("connection %d under the cap: reply %+v, %v", i, resp, err)
		}
	}
	s.Close()
	waitGoroutines(t, base)
}

// TestServerCapsQueriesPerTCPConnection: with the per-connection query
// cap at 3, a connection is closed after its third answer, so a fourth
// query on it sees EOF; a fresh connection still answers, and Close
// still returns every goroutine.
func TestServerCapsQueriesPerTCPConnection(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewServer(echoHandler(1))
	s.tcpQueries = 3
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	ask := func(conn net.Conn, id uint16) error {
		_ = dnswire.WriteTCP(conn, dnswire.NewQuery(id, "cap.test", dnswire.TypeA))
		var resp dnswire.Message
		if err := dnswire.ReadTCPInto(conn, &resp); err != nil {
			return err
		}
		if resp.ID != id {
			t.Fatalf("reply ID %d, want %d", resp.ID, id)
		}
		return nil
	}
	conn := dial()
	defer conn.Close()
	for id := uint16(0); id < 3; id++ {
		if err := ask(conn, id); err != nil {
			t.Fatalf("query %d under the cap: %v", id, err)
		}
	}
	// The server hangs up after its third answer: the read sees its FIN,
	// and a fourth query gets no answer.
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the third answer = %v, want EOF", err)
	}
	if err := ask(conn, 3); err != io.EOF {
		t.Fatalf("fourth query on the capped connection = %v, want EOF", err)
	}
	fresh := dial()
	defer fresh.Close()
	if err := ask(fresh, 4); err != nil {
		t.Fatalf("fresh connection: %v", err)
	}
	s.Close()
	waitGoroutines(t, base)
}

// TestServerDropsOverTCP: a handler that drops a query closes the TCP
// connection, which the client sees as end of stream.
func TestServerDropsOverTCP(t *testing.T) {
	s := NewServer(HandlerFunc(func(context.Context, netx.Addr, *dnswire.Message) *dnswire.Message { return nil }))
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := dnswire.WriteTCP(conn, dnswire.NewQuery(3, "drop.test", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("read after a dropped query = %v, want EOF", err)
	}
}
