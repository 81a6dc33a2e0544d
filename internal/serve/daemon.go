package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/metrics"
)

// serveMetrics groups the daemon's counters; all registered under the
// shared registry so they show up on the debug mux's /metrics ledger.
type serveMetrics struct {
	dnsQueries      *metrics.Counter
	dnsCacheHits    *metrics.Counter
	dnsRateLimited  *metrics.Counter
	httpQueries     *metrics.Counter
	httpRateLimited *metrics.Counter
	reloads         *metrics.Counter
	reloadErrors    *metrics.Counter
	generation      *metrics.Gauge

	drainStarted    *metrics.Counter
	drainDNSDropped *metrics.Counter
	drainTimeouts   *metrics.Counter
	drainCompleted  *metrics.Counter
}

func newServeMetrics(reg *metrics.Registry) *serveMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &serveMetrics{
		dnsQueries:      reg.Counter("serve.dns.queries"),
		dnsCacheHits:    reg.Counter("serve.dns.cache_hits"),
		dnsRateLimited:  reg.Counter("serve.dns.rate_limited"),
		httpQueries:     reg.Counter("serve.http.queries"),
		httpRateLimited: reg.Counter("serve.http.rate_limited"),
		reloads:         reg.Counter("serve.reloads"),
		reloadErrors:    reg.Counter("serve.reload_errors"),
		generation:      reg.Gauge("serve.generation"),
		drainStarted:    reg.Counter("serve.drain.started"),
		drainDNSDropped: reg.Counter("serve.drain.dns_dropped"),
		drainTimeouts:   reg.Counter("serve.drain.timeouts"),
		drainCompleted:  reg.Counter("serve.drain.completed"),
	}
}

// Config parameterizes a Daemon. Zero values take defaults; empty listen
// addresses disable that transport (tests drive the handlers directly).
type Config struct {
	// ArtifactPath is the serve.ClientMap snapshot to load and watch.
	ArtifactPath string
	// HTTPAddr is the JSON API listen address ("" disables; ":0" for an
	// ephemeral port).
	HTTPAddr string
	// DNSAddr is the DNS listen address for both UDP and TCP ("" disables).
	DNSAddr string
	// DebugAddr serves the metrics/pprof mux ("" disables).
	DebugAddr string
	// Zone is the DNS zone answered, canonical form (default DefaultZone).
	Zone string
	// TTL is the answer TTL in seconds (default 60).
	TTL uint32
	// ReloadEvery polls ArtifactPath for changes (0 disables polling;
	// Reload can still be called explicitly).
	ReloadEvery time.Duration
	// RateLimit configures the per-client limiter; a zero struct takes
	// the limiter defaults. Set Rate < 0 to disable limiting entirely.
	RateLimit LimiterConfig
	// Clock drives the limiter and reload poll (nil means wall clock).
	Clock clockx.Clock
	// Metrics is the registry to instrument (nil allocates a private one).
	Metrics *metrics.Registry
}

// Daemon is the serving process: one Store, one limiter, the DNS response
// cache, and up to three listeners (HTTP, DNS UDP+TCP, debug). Construct with
// NewDaemon, then Start; Close is idempotent.
type Daemon struct {
	cfg   Config
	store *Store
	met   *serveMetrics
	reg   *metrics.Registry

	dns  *DNSHandler
	http *HTTPHandler

	dnsSrv  *dnsnet.Server
	httpSrv *http.Server
	httpLn  net.Listener
	debug   *metrics.DebugServer

	udpAddr net.Addr
	tcpAddr net.Addr

	stop    chan struct{}
	stopped sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// NewDaemon builds a daemon from cfg without binding sockets or loading
// the artifact; Start does both.
func NewDaemon(cfg Config) *Daemon {
	if cfg.Zone == "" {
		cfg.Zone = DefaultZone
	}
	if cfg.TTL == 0 {
		cfg.TTL = 60
	}
	if cfg.Clock == nil {
		cfg.Clock = clockx.Real{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d := &Daemon{
		cfg:   cfg,
		store: NewStore(),
		met:   newServeMetrics(reg),
		reg:   reg,
		stop:  make(chan struct{}),
	}
	var lim *Limiter
	if cfg.RateLimit.Rate >= 0 {
		lc := cfg.RateLimit
		if lc.Clock == nil {
			lc.Clock = cfg.Clock
		}
		lim = NewLimiter(lc)
	}
	d.dns = newDNSHandler(d.store, lim, cfg.Zone, cfg.TTL, d.met)
	d.http = &HTTPHandler{store: d.store, limits: lim, met: d.met}
	return d
}

// newHTTPServer wraps h in a server that gives up on a client too slow to
// finish its request header or idle too long between requests, and reads
// no header larger than a query API needs.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    8 << 10,
	}
}

// Store exposes the daemon's index store (tests swap artifacts through
// it directly).
func (d *Daemon) Store() *Store { return d.store }

// DNSHandler exposes the DNS handler for in-process queries.
func (d *Daemon) DNSHandler() *DNSHandler { return d.dns }

// HTTPHandler exposes the HTTP handler for in-process queries.
func (d *Daemon) HTTPHandler() *HTTPHandler { return d.http }

// Start loads the artifact (if configured) and binds every configured
// listener. On error the daemon is closed and safe to discard.
func (d *Daemon) Start() error {
	if d.cfg.ArtifactPath != "" {
		if _, _, err := d.store.LoadFile(d.cfg.ArtifactPath); err != nil {
			return err
		}
		d.noteLoad()
	}
	if err := d.listen(); err != nil {
		d.Close()
		return err
	}
	if d.cfg.ReloadEvery > 0 && d.cfg.ArtifactPath != "" {
		d.stopped.Add(1)
		go d.reloadLoop()
	}
	return nil
}

func (d *Daemon) listen() error {
	if d.cfg.DNSAddr != "" {
		// TCP binds the UDP port so one -dns flag covers both transports.
		// With an ephemeral port (":0") the kernel picks the UDP port
		// without regard for TCP, so the matching TCP port can already be
		// taken — retry with a fresh pair until both bind.
		var err error
		for attempt := 0; ; attempt++ {
			d.dnsSrv = dnsnet.NewServer(d.dns)
			var ua, ta net.Addr
			if ua, err = d.dnsSrv.ListenUDP(d.cfg.DNSAddr); err != nil {
				return fmt.Errorf("serve: dns udp listen: %w", err)
			}
			if ta, err = d.dnsSrv.ListenTCP(ua.String()); err == nil {
				d.udpAddr, d.tcpAddr = ua, ta
				break
			}
			d.dnsSrv.Close()
			d.dnsSrv = nil
			if _, port, splitErr := net.SplitHostPort(d.cfg.DNSAddr); splitErr != nil || port != "0" || attempt >= 15 {
				return fmt.Errorf("serve: dns tcp listen: %w", err)
			}
		}
	}
	if d.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", d.cfg.HTTPAddr)
		if err != nil {
			return fmt.Errorf("serve: http listen: %w", err)
		}
		d.httpLn = ln
		d.httpSrv = newHTTPServer(d.http)
		d.stopped.Add(1)
		go func() {
			defer d.stopped.Done()
			err := d.httpSrv.Serve(ln)
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				// Listener died outside Close; nothing to do but note it.
				d.met.reloadErrors.Inc()
			}
		}()
	}
	if d.cfg.DebugAddr != "" {
		dbg, err := metrics.ServeDebug(d.cfg.DebugAddr, d.reg)
		if err != nil {
			return fmt.Errorf("serve: debug listen: %w", err)
		}
		d.debug = dbg
	}
	return nil
}

// HTTPAddr returns the bound HTTP listen address ("" when disabled).
func (d *Daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// DNSUDPAddr returns the bound DNS UDP address ("" when disabled).
func (d *Daemon) DNSUDPAddr() string {
	if d.udpAddr == nil {
		return ""
	}
	return d.udpAddr.String()
}

// DNSTCPAddr returns the bound DNS TCP address ("" when disabled).
func (d *Daemon) DNSTCPAddr() string {
	if d.tcpAddr == nil {
		return ""
	}
	return d.tcpAddr.String()
}

// DebugAddr returns the bound debug mux address ("" when disabled).
func (d *Daemon) DebugAddr() string {
	if d.debug == nil {
		return ""
	}
	return d.debug.Addr()
}

// Reload re-reads the artifact path now. Unchanged artifacts are a no-op;
// errors leave the current index serving and count on reload_errors.
func (d *Daemon) Reload() (changed bool, err error) {
	if d.cfg.ArtifactPath == "" {
		return false, errors.New("serve: no artifact path configured")
	}
	_, changed, err = d.store.LoadFile(d.cfg.ArtifactPath)
	if err != nil {
		d.met.reloadErrors.Inc()
		return false, err
	}
	if changed {
		d.noteLoad()
	}
	return changed, nil
}

func (d *Daemon) noteLoad() {
	d.met.reloads.Inc()
	if ix := d.store.Current(); ix != nil {
		d.met.generation.Set(int64(ix.Generation))
	}
}

// reloadLoop polls the artifact file until Close. Poll errors are
// counted, not fatal: a half-written artifact mid-copy self-heals on the
// next tick.
func (d *Daemon) reloadLoop() {
	defer d.stopped.Done()
	t := time.NewTicker(d.cfg.ReloadEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.Reload() // errors already counted inside
		}
	}
}

// Drain gracefully shuts the daemon down: every listener stops
// accepting, in-flight DNS and HTTP queries get up to timeout to finish
// and write their responses, then everything closes. Returns true when
// nothing in flight was abandoned. Counted under serve.drain.*; a later
// Close is a no-op.
func (d *Daemon) Drain(timeout time.Duration) bool {
	d.closeMu.Lock()
	if d.closed {
		d.closeMu.Unlock()
		return true
	}
	d.closed = true
	close(d.stop)
	d.closeMu.Unlock()

	d.met.drainStarted.Inc()
	clean := true
	if d.dnsSrv != nil {
		if !d.dnsSrv.Drain(timeout) {
			clean = false
			d.met.drainTimeouts.Inc()
		}
		d.met.drainDNSDropped.Add(d.dnsSrv.DrainDropped())
	}
	if d.httpSrv != nil {
		// http.Server.Shutdown is the same contract: stop accepting,
		// wait for in-flight requests, give up at the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			clean = false
			d.met.drainTimeouts.Inc()
		}
		cancel()
	}
	if d.debug != nil {
		d.debug.Close()
	}
	d.stopped.Wait()
	if clean {
		d.met.drainCompleted.Inc()
	}
	return clean
}

// Close shuts every listener down and waits for the reload loop.
func (d *Daemon) Close() error {
	d.closeMu.Lock()
	if d.closed {
		d.closeMu.Unlock()
		return nil
	}
	d.closed = true
	close(d.stop)
	d.closeMu.Unlock()

	var first error
	if d.dnsSrv != nil {
		if err := d.dnsSrv.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := d.httpSrv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	if d.debug != nil {
		if err := d.debug.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.stopped.Wait()
	return first
}
