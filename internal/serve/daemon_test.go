package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
)

// startDaemon writes the fixture artifact to disk and boots a daemon on
// ephemeral ports with every transport enabled.
func startDaemon(t *testing.T, cm *ClientMap) (*Daemon, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "map.snap")
	if _, err := WriteFile(path, cm); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(Config{
		ArtifactPath: path,
		HTTPAddr:     "127.0.0.1:0",
		DNSAddr:      "127.0.0.1:0",
		DebugAddr:    "127.0.0.1:0",
		Metrics:      metrics.NewRegistry(),
		// The limiter has its own tests; end-to-end tests blast from one
		// client address and must not be throttled.
		RateLimit: LimiterConfig{Rate: -1},
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, path
}

func TestDaemonEndToEnd(t *testing.T) {
	d, path := startDaemon(t, testClientMap(t))

	// HTTP over a real socket.
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/ip/192.0.2.17")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("http status %d: %s", resp.StatusCode, body)
	}
	var ip IPResponse
	if err := json.Unmarshal(body, &ip); err != nil {
		t.Fatal(err)
	}
	if !ip.Active || ip.ASN != 64500 {
		t.Fatalf("http response = %+v", ip)
	}

	// healthz.
	if resp, err = http.Get("http://" + d.HTTPAddr() + "/healthz"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// DNS over UDP and TCP against the same bound port.
	q := dnswire.NewQuery(31337, "17.2.0.192.clientmap", dnswire.TypeA)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	udp := &dnsnet.UDPClient{Timeout: 3 * time.Second}
	r, err := udp.Exchange(ctx, d.DNSUDPAddr(), q)
	if err != nil {
		t.Fatalf("udp exchange: %v", err)
	}
	if r.ID != 31337 || r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("udp response = %+v", r)
	}
	if a, ok := r.Answers[0].Data.(dnswire.A); !ok || a.Addr != ActiveA {
		t.Fatalf("udp answer = %+v", r.Answers[0])
	}
	tcp := &dnsnet.TCPClient{Timeout: 3 * time.Second}
	if r, err = tcp.Exchange(ctx, d.DNSTCPAddr(), q); err != nil {
		t.Fatalf("tcp exchange: %v", err)
	}
	if r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("tcp response = %+v", r)
	}
	if d.DNSUDPAddr() != d.DNSTCPAddr() {
		t.Errorf("udp %s and tcp %s differ; one -dns flag should cover both", d.DNSUDPAddr(), d.DNSTCPAddr())
	}

	// Debug mux exposes the serve counters.
	if resp, err = http.Get("http://" + d.DebugAddr() + "/metrics"); err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve.dns.queries", "serve.http.queries", "serve.generation"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("debug /metrics missing %q", want)
		}
	}

	// Reload: unchanged file is a no-op, changed file bumps the generation
	// without dropping the socket.
	if changed, err := d.Reload(); err != nil || changed {
		t.Fatalf("no-op reload: changed=%v err=%v", changed, err)
	}
	gen1 := d.Store().Current().Generation
	if _, err := WriteFile(path, genClientMap(t, 7)); err != nil {
		t.Fatal(err)
	}
	if changed, err := d.Reload(); err != nil || !changed {
		t.Fatalf("real reload: changed=%v err=%v", changed, err)
	}
	if got := d.Store().Current().Generation; got != gen1+1 {
		t.Fatalf("generation %d after reload, want %d", got, gen1+1)
	}
	if r, err = udp.Exchange(ctx, d.DNSUDPAddr(), q); err != nil || r.RCode != dnswire.RCodeSuccess {
		t.Fatalf("post-reload udp: %v %+v", err, r)
	}
}

func TestDaemonPollReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	if _, err := WriteFile(path, testClientMap(t)); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(Config{
		ArtifactPath: path,
		ReloadEvery:  5 * time.Millisecond,
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := WriteFile(path, genClientMap(t, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Store().Current().Generation < 2 {
		if time.Now().After(deadline) {
			t.Fatal("poll loop never picked up the new artifact")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonStartMissingArtifact(t *testing.T) {
	d := NewDaemon(Config{ArtifactPath: filepath.Join(t.TempDir(), "absent.snap")})
	if err := d.Start(); err == nil {
		d.Close()
		t.Fatal("Start succeeded without an artifact")
	}
}

func TestDaemonCloseIdempotent(t *testing.T) {
	d, _ := startDaemon(t, testClientMap(t))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestDaemonRateLimitDisabled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.snap")
	if _, err := WriteFile(path, testClientMap(t)); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(Config{
		ArtifactPath: path,
		RateLimit:    LimiterConfig{Rate: -1},
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.HTTPHandler().limits != nil || d.DNSHandler().limits != nil {
		t.Fatal("Rate < 0 did not disable the limiter")
	}
	// A burst far over any default limit all succeeds in-process.
	for i := 0; i < 500; i++ {
		if w := get(d.HTTPHandler(), "/v1/summary"); w.Code != http.StatusOK {
			t.Fatalf("query %d = %d with limiter disabled", i, w.Code)
		}
	}
}

func TestDaemonSOASerialTracksGeneration(t *testing.T) {
	d, path := startDaemon(t, testClientMap(t))
	if _, err := WriteFile(path, genClientMap(t, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reload(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	udp := &dnsnet.UDPClient{Timeout: 3 * time.Second}
	r, err := udp.Exchange(ctx, d.DNSUDPAddr(), dnswire.NewQuery(1, "clientmap", dnswire.TypeSOA))
	if err != nil {
		t.Fatal(err)
	}
	soa, ok := r.Answers[0].Data.(dnswire.SOA)
	if !ok {
		t.Fatalf("apex answer = %+v", r.Answers[0])
	}
	if want := d.Store().Current().Generation; uint64(soa.Serial) != want {
		t.Fatalf("SOA serial %d, want generation %d", soa.Serial, want)
	}
}

// DNSTCPAddr returns the bound DNS TCP address ("" when disabled).
func (d *Daemon) DNSTCPAddr() string {
	if d.tcpAddr == nil {
		return ""
	}
	return d.tcpAddr.String()
}
