// Package sim is the composition root of the simulated measurement
// environment: it generates a world, wires the authoritative servers, the
// Google Public DNS model (with lazy background cache fill), the cloud
// vantage points and the in-memory transport, and exposes ready-to-run
// probers and dataset collectors. The experiment harness, the public API
// and the integration tests all assemble the system through this package.
package sim

import (
	"fmt"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/authdns"
	"clientmap/internal/clockx"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/dnsnet"
	"clientmap/internal/domains"
	"clientmap/internal/faults"
	"clientmap/internal/geo"
	"clientmap/internal/gpdns"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/routeviews"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

// Server names on the in-memory network.
const (
	GoogleDNSTCP = "8.8.8.8/tcp"
	GoogleDNSUDP = "8.8.8.8/udp"
	AuthServer   = "auth.example"
)

// Config assembles a system.
type Config struct {
	Seed  randx.Seed
	Scale world.Scale
	// WireCodec makes every in-memory exchange round-trip through the DNS
	// wire codec (slower, maximally faithful). Tests enable it; bulk
	// campaigns leave it off.
	WireCodec bool
	// Metrics, when set, instruments the assembled system: the Google
	// front end counts queries, cache hits and rate-limit decisions under
	// "gpdns/…", and Prober wraps the vantage and authoritative transports
	// in dnsnet.Instrument ("dnsnet/vantage/…", "dnsnet/auth/…") outermost,
	// outside any fault injector. Nil leaves the system uninstrumented.
	Metrics *metrics.Registry
}

// System is the assembled environment.
type System struct {
	World  *world.World
	Router *anycast.Router
	Model  *traffic.Model
	Clock  *clockx.Sim
	Auth   *authdns.Server
	Google *gpdns.Server
	Net    *dnsnet.MemNet
	RV     *routeviews.Table

	vantages      []cacheprobe.Vantage
	faultCfg      *faults.Config
	faultEpoch    time.Time
	faultCounters *faults.Counters
	health        *health.Tracker
	metrics       *metrics.Registry
}

// New builds a System over a world with the calibrated behavioural
// parameters and workload, on a simulated clock starting at clockx.Epoch.
func New(cfg Config) (*System, error) {
	w, err := world.Generate(world.Config{Seed: cfg.Seed, Scale: cfg.Scale, Params: world.DefaultParams()})
	if err != nil {
		return nil, err
	}
	router := anycast.NewRouter(cfg.Seed, anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())
	clock := clockx.NewSim(clockx.Epoch)

	auth := authdns.New(cfg.Seed, domains.Catalog())
	google := gpdns.NewServer(gpdns.Config{Clock: clock, Metrics: cfg.Metrics}, router)
	google.SetUpstream(auth)
	google.SetLazyFill(gpdns.NewLazyFill(model, gpdns.PoolsPerPoP))

	net := dnsnet.NewMemNet(cfg.WireCodec)
	net.Register(GoogleDNSTCP, google.TCP())
	net.Register(GoogleDNSUDP, google.UDP())
	net.Register(AuthServer, auth)

	s := &System{
		World:  w,
		Router: router,
		Model:  model,
		Clock:  clock,
		Auth:   auth,
		Google: google,
		Net:    net,
		RV:     routeviews.FromWorld(w),

		metrics: cfg.Metrics,
	}
	s.wireVantages()
	return s, nil
}

// wireVantages gives each cloud vantage a source address in 100.64.0.0/16
// (cloud space outside the world allocator) and registers its anycast
// route with the Google front end.
func (s *System) wireVantages() {
	for i, v := range anycast.CloudVantages() {
		addr := netx.AddrFrom4(100, 64, byte(i/250), byte(1+i%250))
		popIdx := s.Router.PoPForVantage(v.Coord)
		if popIdx < 0 {
			continue
		}
		s.Google.RegisterVantage(addr, popIdx)
		s.vantages = append(s.vantages, cacheprobe.Vantage{
			Name:      fmt.Sprintf("%s:%s", v.Provider, v.Name),
			Coord:     v.Coord,
			Addr:      addr,
			Exchanger: s.Net.Client(addr),
			Server:    GoogleDNSTCP,
		})
	}
}

// Vantages returns the wired cloud vantage points.
func (s *System) Vantages() []cacheprobe.Vantage { return s.vantages }

// InjectFaults wraps every measurement transport — each vantage's
// exchanger and the prober's authoritative path — in a deterministic
// fault injector. Each vantage is its own injector target (named by the
// vantage), so outage windows can black out the path to one PoP; the
// authoritative path is the target "auth". epoch anchors outage windows
// (the campaign start). Returns the shared counters (also wired into
// ProberConfig). Call once, before building probers.
func (s *System) InjectFaults(cfg faults.Config, epoch time.Time) *faults.Counters {
	s.faultCounters = &faults.Counters{}
	s.faultCfg = &cfg
	s.faultEpoch = epoch
	for i := range s.vantages {
		v := &s.vantages[i]
		v.Exchanger = faults.New(cfg, v.Name, epoch, s.Clock, s.faultCounters, v.Exchanger)
	}
	return s.faultCounters
}

// EnableHealth builds the degradation layer's circuit-breaker tracker and
// arranges for probers built by this system to consult it: every
// measurement transport is wrapped in a breaker (outermost, so it observes
// outcomes after fault injection and instrumentation), and the prober
// gains hedging and failover. epoch anchors the breaker's accounting
// windows (the campaign start). Returns nil — and changes nothing — when
// the policy is off. Call once, before building probers.
func (s *System) EnableHealth(cfg health.Config, epoch time.Time) *health.Tracker {
	if !cfg.Enabled() {
		return nil
	}
	s.health = health.NewTracker(cfg, epoch, s.metrics)
	return s.health
}

// PoPCoords returns the coordinates of every cataloged PoP by name — the
// public knowledge the prober uses for scope assignment.
func (s *System) PoPCoords() map[string]geo.Coord {
	out := make(map[string]geo.Coord)
	for _, p := range s.Router.PoPs() {
		out[p.Name] = p.Coord
	}
	return out
}

// ProbeDomains returns the paper's probe-domain selection.
func (s *System) ProbeDomains() []domains.Domain {
	return domains.SelectProbeDomains(4, time.Minute)
}

// ProberConfig returns a cache-probing configuration sized to the world.
// Campaign-level knobs (duration, redundancy, passes) can be adjusted on
// the returned value before constructing the prober.
func (s *System) ProberConfig() cacheprobe.Config {
	samples := len(s.World.Prefixes) / 40
	if samples < 200 {
		samples = 200
	}
	return cacheprobe.Config{
		Seed:               s.World.Cfg.Seed,
		Clock:              s.Clock,
		Domains:            s.ProbeDomains(),
		GeoDB:              s.World.GeoDB(),
		Universe:           s.World.PublicSpan(),
		CalibrationSamples: samples,
		FaultCounters:      s.faultCounters,
	}
}

// Prober builds a ready-to-run cache prober. When the system carries a
// metrics registry, the vantage and authoritative transports are wrapped
// in dnsnet.Instrument outermost — outside the fault injectors — so the
// transport counters see what the prober sees, injected faults included.
func (s *System) Prober(cfg cacheprobe.Config) *cacheprobe.Prober {
	auth := cacheprobe.Authoritative{
		Exchanger: s.Net.Client(netx.AddrFrom4(100, 64, 255, 1)),
		Server:    AuthServer,
	}
	if s.faultCfg != nil {
		auth.Exchanger = faults.New(*s.faultCfg, "auth", s.faultEpoch, s.Clock, s.faultCounters, auth.Exchanger)
	}
	auth.Exchanger = dnsnet.Instrument(s.metrics, "auth", auth.Exchanger)
	auth.Exchanger = health.Wrap(s.health, "auth", s.Clock, auth.Exchanger)
	vantages := s.vantages
	if s.metrics != nil || s.health != nil {
		vantages = make([]cacheprobe.Vantage, len(s.vantages))
		copy(vantages, s.vantages)
		for i := range vantages {
			if s.metrics != nil {
				vantages[i].Exchanger = dnsnet.Instrument(s.metrics, "vantage", vantages[i].Exchanger)
			}
			// Breaker outermost: it observes exactly what the prober sees.
			vantages[i].Exchanger = health.Wrap(s.health, vantages[i].Name, s.Clock, vantages[i].Exchanger)
		}
	}
	if cfg.Health == nil {
		cfg.Health = s.health
	}
	return cacheprobe.NewProber(cfg, vantages, auth)
}
