// Command clientmapd serves the client-activity map: it loads a
// serve.ClientMap artifact (exported by cmd/experiments -serve-artifact)
// and answers "is this /24 / AS active, with what evidence?" over an
// HTTP JSON API and over DNS itself, RBL-style.
//
// Usage:
//
//	clientmapd -artifact clientmap.snap -http :8053 -dns :5353
//
// Query examples once running:
//
//	curl http://localhost:8053/v1/ip/192.0.2.17
//	curl http://localhost:8053/v1/as/64511
//	curl http://localhost:8053/v1/summary
//	dig @localhost -p 5353 17.2.0.192.clientmap A
//	dig @localhost -p 5353 17.2.0.192.clientmap TXT
//	dig @localhost -p 5353 64511.as.clientmap TXT
//
// The artifact file is polled for changes (-reload); replacing it
// atomically (write + rename) hot-swaps the served index without
// dropping in-flight queries.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clientmap/internal/metrics"
	"clientmap/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clientmapd: ")
	var (
		artifact  = flag.String("artifact", "", "serve.ClientMap snapshot to load (required)")
		httpAddr  = flag.String("http", ":8053", `HTTP JSON API listen address ("" disables)`)
		dnsAddr   = flag.String("dns", ":5353", `DNS listen address, UDP+TCP ("" disables)`)
		debugAddr = flag.String("debug-addr", "", "metrics/pprof mux listen address")
		zone      = flag.String("zone", serve.DefaultZone, "DNS zone answered")
		ttl       = flag.Uint("ttl", 60, "DNS answer TTL in seconds")
		reload    = flag.Duration("reload", 10*time.Second, "artifact change-poll interval (0 disables)")
		rate      = flag.Float64("rate", 100, "per-client queries/second (negative disables limiting)")
		burst     = flag.Float64("burst", 0, "per-client burst depth (0 = 2x rate)")
		drainFor  = flag.Duration("drain-timeout", 5*time.Second, "how long SIGTERM waits for in-flight queries")
	)
	flag.Parse()
	if *artifact == "" {
		log.Fatal("-artifact is required")
	}

	reg := metrics.NewRegistry()
	d := serve.NewDaemon(serve.Config{
		ArtifactPath: *artifact,
		HTTPAddr:     *httpAddr,
		DNSAddr:      *dnsAddr,
		DebugAddr:    *debugAddr,
		Zone:         *zone,
		TTL:          uint32(*ttl),
		ReloadEvery:  *reload,
		RateLimit:    serve.LimiterConfig{Rate: *rate, Burst: *burst},
		Metrics:      reg,
	})
	// Catch signals before announcing listeners: an early SIGTERM drains.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	ix := d.Store().Current()
	st := ix.Stats()
	log.Printf("loaded %s: %d scopes, %d active /24s, %d active ASes, %d origins (artifact %.12s, seed=%d scale=%s)",
		*artifact, st.Scopes, st.Active24s, st.ActiveASes, st.Origins, ix.Hash, ix.Meta.Seed, ix.Meta.Scale)
	if a := d.HTTPAddr(); a != "" {
		log.Printf("http api on %s", a)
	}
	if a := d.DNSUDPAddr(); a != "" {
		log.Printf("dns on %s (udp+tcp), zone %q", a, *zone)
	}
	if a := d.DebugAddr(); a != "" {
		log.Printf("debug mux on %s", a)
	}

	for s := range sig {
		if s == syscall.SIGHUP {
			changed, err := d.Reload()
			switch {
			case err != nil:
				log.Printf("reload failed (still serving previous artifact): %v", err)
			case changed:
				log.Printf("reloaded: now at generation %d", d.Store().Current().Generation)
			default:
				log.Printf("reload: artifact unchanged")
			}
			continue
		}
		// Graceful drain: stop accepting, give in-flight queries
		// -drain-timeout to finish, flush the final counters, exit 0.
		log.Printf("received %v, draining (timeout %s)", s, *drainFor)
		clean := d.Drain(*drainFor)
		led := reg.SnapshotPrefix("serve.")
		log.Printf("drained: clean=%v dns=%d http=%d dropped_mid_drain=%d",
			clean, led["serve.dns.queries"], led["serve.http.queries"], led["serve.drain.dns_dropped"])
		return
	}
}
