package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
)

// TestDaemonStopsItsGoroutines: after Close, and after Drain, nothing the
// daemon started is left running — the UDP loops, the accept loops, the
// connection goroutines of a DNS-TCP client and an HTTP keep-alive client
// that are both still connected, the reload poller, the debug mux.
func TestDaemonStopsItsGoroutines(t *testing.T) {
	for name, stop := range map[string]func(*Daemon){
		"Close": func(d *Daemon) { d.Close() },
		"Drain": func(d *Daemon) { d.Drain(2 * time.Second) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			base := runtime.NumGoroutine()

			d, _ := startDaemon(t, testClientMap(t))
			q := dnswire.NewQuery(9, "17.2.0.192.clientmap", dnswire.TypeA)
			if _, err := (&dnsnet.UDPClient{Timeout: 3 * time.Second}).Exchange(context.Background(), d.DNSUDPAddr(), q); err != nil {
				t.Fatal(err)
			}
			tcp := &dnsnet.TCPClient{Timeout: 3 * time.Second}
			defer tcp.Close()
			if _, err := tcp.Exchange(context.Background(), d.DNSTCPAddr(), q); err != nil {
				t.Fatal(err)
			}
			resp, err := (&http.Client{Transport: tr}).Get("http://" + d.HTTPAddr() + "/v1/summary")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()

			stop(d)
			// The HTTP client's own two goroutines go when it sees the
			// server hang up; give them, and only them, a moment.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, %d before the daemon started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestHTTPFrontDoorLimits: the daemon's HTTP server carries the fixed
// limits, refuses a request whose header outgrows them, and hangs up on
// a client that dribbles its header past the deadline.
func TestHTTPFrontDoorLimits(t *testing.T) {
	d, _ := startDaemon(t, testClientMap(t))
	srv := d.httpSrv
	if srv.ReadHeaderTimeout != 5*time.Second || srv.IdleTimeout != 120*time.Second || srv.MaxHeaderBytes != 8<<10 {
		t.Fatalf("daemon's HTTP server: header timeout %v, idle timeout %v, max header %d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+d.HTTPAddr()+"/v1/summary", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("p", 32<<10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("32 KiB header = %d, want 431", resp.StatusCode)
	}

	// The dribbler, against the same construction with the deadline
	// shortened so the test need not wait out the real one: a header
	// line every 20 ms, never the blank line that ends the header.
	slow := newHTTPServer(d.HTTPHandler())
	slow.ReadHeaderTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go slow.Serve(ln)
	defer slow.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/summary HTTP/1.1\r\nHost: dribble\r\n")); err != nil {
		t.Fatal(err)
	}
	cut := make(chan error, 1)
	go func() {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, conn) // returns once the server hangs up
		cut <- err
	}()
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case err := <-cut:
			if err != nil {
				t.Fatalf("waiting for the server to hang up: %v", err)
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Fatalf("server took %v to cut a dribbling client off", waited)
			}
			return
		case <-time.After(20 * time.Millisecond):
			conn.Write([]byte("X-Dribble: 1\r\n")) // fails once cut off; the reader reports
		}
	}
}
