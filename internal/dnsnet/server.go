package dnsnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// How long a TCP connection may sit between queries, and how long one
// reply may take to leave: a peer that stops reading is cut off instead
// of pinning a goroutine. An accept over tcpMaxConnections open ones is
// closed at once: a flood of idle connections costs no goroutines. A
// connection is closed after its tcpMaxQueries-th answer, so a client
// that never stops asking still gives its slot back.
const (
	tcpIdleTimeout    = 30 * time.Second
	tcpWriteTimeout   = 10 * time.Second
	tcpMaxConnections = 1024
	tcpMaxQueries     = 10000
)

// Server serves a Handler over real UDP and TCP sockets. It exists so the
// simulated DNS services (authoritative zones, the Google Public DNS model)
// can also be exposed on loopback or a LAN and probed by the real client
// tools — the integration tests and cmd/cachescan use exactly this path —
// and it is clientmapd's DNS front end.
//
// Each UDP socket is served by a fixed set of loops, each reading,
// decoding, answering and writing on its own reused message and buffer;
// each TCP connection likewise. Nothing is spawned or allocated per query.
//
// A zero Server is not usable; construct with NewServer.
type Server struct {
	handler  Handler
	appender Appender // handler's append form, nil if it has none

	tcpIdle, tcpWrite  time.Duration
	tcpMax, tcpQueries int

	// Query admission is lock-free: a query counts in inflight from
	// before the draining check until after its reply is written.
	inflight atomic.Int64
	draining atomic.Bool
	dropped  atomic.Int64  // queries refused because a drain had started
	idle     chan struct{} // closed once a drain sees inflight reach zero
	idleOnce sync.Once

	mu     sync.Mutex
	socks  []io.Closer           // UDP sockets and TCP listeners
	conns  map[net.Conn]struct{} // open TCP connections
	closed bool
	wg     sync.WaitGroup // every loop and connection goroutine
}

// NewServer returns a Server dispatching to handler.
func NewServer(handler Handler) *Server {
	s := &Server{
		handler:    handler,
		tcpIdle:    tcpIdleTimeout,
		tcpWrite:   tcpWriteTimeout,
		tcpMax:     tcpMaxConnections,
		tcpQueries: tcpMaxQueries,
		idle:       make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	s.appender, _ = handler.(Appender)
	return s
}

// srcAddr converts a peer address to the IPv4 source handlers see. A
// dual-stack socket reports IPv4 peers in mapped form, so the address is
// unmapped first; real IPv6 peers yield zero.
func srcAddr(a netip.Addr) netx.Addr {
	a = a.Unmap()
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return netx.AddrFrom4(b[0], b[1], b[2], b[3])
}

// track registers a socket or listener for Close and reserves n
// goroutines on the wait group; false means the server already closed.
func (s *Server) track(c io.Closer, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.socks = append(s.socks, c)
	s.wg.Add(n)
	return true
}

// ListenUDP starts serving UDP datagrams on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) ListenUDP(addr string) (net.Addr, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	conn := pc.(*net.UDPConn)
	// Two loops at least, so one slow handler call does not stop the
	// socket; beyond that, one per processor that could run it.
	loops := max(2, runtime.GOMAXPROCS(0))
	if !s.track(conn, loops) {
		conn.Close()
		return nil, ErrServerClosed
	}
	for i := 0; i < loops; i++ {
		go s.serveUDP(conn)
	}
	return conn.LocalAddr(), nil
}

func (s *Server) serveUDP(conn *net.UDPConn) {
	defer s.wg.Done()
	var query dnswire.Message
	in := make([]byte, 65535)
	out := make([]byte, 0, 512)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(in)
		if err != nil {
			return // closed
		}
		if dnswire.UnmarshalInto(&query, in[:n]) != nil {
			continue // malformed datagrams are dropped, like real servers
		}
		if !s.beginQuery() {
			continue // draining: the client retries another server
		}
		out = s.reply(out[:0], srcAddr(from.Addr()), &query)
		if len(out) > 0 {
			_, _ = conn.WriteToUDPAddrPort(out, from)
		}
		s.endQuery()
	}
}

// reply appends the handler's answer to query to dst; dst unextended
// means the query is dropped.
func (s *Server) reply(dst []byte, from netx.Addr, query *dnswire.Message) []byte {
	if s.appender != nil {
		return s.appender.AppendDNS(dst, from, query)
	}
	resp := s.handler.ServeDNS(context.Background(), from, query)
	if resp == nil {
		return dst
	}
	out, err := resp.AppendMarshal(dst)
	if err != nil {
		return dst
	}
	return out
}

// ListenTCP starts serving length-framed TCP connections on addr and
// returns the bound address.
func (s *Server) ListenTCP(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if !s.track(ln, 1) {
		ln.Close()
		return nil, ErrServerClosed
	}
	go s.serveTCP(ln)
	return ln.Addr(), nil
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.tcpMax {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var src netx.Addr
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		src = srcAddr(ta.AddrPort().Addr())
	}
	var query dnswire.Message
	out := make([]byte, 0, 514)
	for served := 0; served < s.tcpQueries; served++ {
		_ = conn.SetReadDeadline(time.Now().Add(s.tcpIdle))
		if dnswire.ReadTCPInto(conn, &query) != nil {
			return
		}
		if !s.beginQuery() {
			return // draining: close the connection, client retries
		}
		// The reply is built behind its two-byte length prefix and
		// leaves in one write.
		out = s.reply(append(out[:0], 0, 0), src, &query)
		n := len(out) - 2
		if n == 0 || n > 0xFFFF {
			s.endQuery()
			return // drop the connection, as rate-limited servers do
		}
		binary.BigEndian.PutUint16(out, uint16(n))
		_ = conn.SetWriteDeadline(time.Now().Add(s.tcpWrite))
		_, err := conn.Write(out)
		s.endQuery()
		if err != nil {
			return
		}
	}
}

// beginQuery admits a query into the in-flight count. False means the
// server is draining and the query must be refused — the anycast
// client's retry lands on another replica. Counting before checking is
// what lets Drain trust a zero: a query that slips past the flag is
// already in the count Drain reads next.
func (s *Server) beginQuery() bool {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.dropped.Add(1)
		s.endQuery()
		return false
	}
	return true
}

// endQuery retires a query after its response has been written — never
// before, or a drain could close the socket between the handler finishing
// and the write — and wakes a waiting Drain when the server goes idle.
func (s *Server) endQuery() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// Drain gracefully shuts the server down: new queries are refused from
// this call on, in-flight queries get up to timeout to write their
// responses, then every socket closes. Returns true when the server
// went idle in time, false when the timeout abandoned in-flight work.
// Drain is idempotent with Close and safe to call concurrently with it.
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	done := true
	if s.inflight.Load() != 0 {
		t := time.NewTimer(timeout)
		select {
		case <-s.idle:
		case <-t.C:
			done = false
		}
		t.Stop()
	}
	s.Close()
	return done
}

// DrainDropped reports how many queries were refused because they
// arrived after a drain (or close) had begun.
func (s *Server) DrainDropped() int64 { return s.dropped.Load() }

// Close shuts down all sockets, listeners and open TCP connections, and
// waits for every serving goroutine to finish its current query and exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	var errs []error
	for _, c := range s.socks {
		errs = append(errs, c.Close())
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return errors.Join(errs...)
}
