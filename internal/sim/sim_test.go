package sim

import (
	"context"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/world"
)

func newSystem(t testing.TB, wireCodec bool) *System {
	t.Helper()
	s, err := New(Config{Seed: 77, Scale: world.ScaleTiny, WireCodec: wireCodec})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSystemWiring(t *testing.T) {
	s := newSystem(t, false)
	if len(s.Vantages()) == 0 {
		t.Fatal("no vantages wired")
	}
	if len(s.PoPCoords()) != 45 {
		t.Errorf("PoPCoords has %d entries, want 45", len(s.PoPCoords()))
	}
	if got := len(s.ProbeDomains()); got != 5 {
		t.Errorf("probe domains = %d, want 4 + Microsoft", got)
	}
	if len(s.ProberConfig().Universe) == 0 {
		t.Error("empty universe")
	}
}

func TestVantagesReachService(t *testing.T) {
	s := newSystem(t, true) // wire codec on: full marshal/unmarshal per hop
	reached := map[string]bool{}
	for _, v := range s.Vantages() {
		q := dnswire.NewQuery(1, "o-o.myaddr.l.google.com", dnswire.TypeTXT)
		resp, err := v.Exchanger.Exchange(context.Background(), v.Server, q)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		txt := resp.Answers[0].Data.(dnswire.TXT)
		reached[txt.Strings[0]] = true
	}
	if len(reached) < 15 {
		t.Errorf("vantages reach only %d distinct PoPs", len(reached))
	}
}

func TestAuthReachableOnMemNet(t *testing.T) {
	s := newSystem(t, false)
	cl := s.Net.Client(netx.MustParseAddr("100.64.255.2"))
	q := dnswire.NewQuery(9, "www.google.com", dnswire.TypeA).WithECS(netx.MustParsePrefix("1.2.3.0/24"))
	resp, err := cl.Exchange(context.Background(), AuthServer, q)
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("auth exchange failed: %v %+v", err, resp)
	}
	if resp.EDNS == nil || resp.EDNS.ECS == nil || resp.EDNS.ECS.ScopePrefixLen == 0 {
		t.Error("auth response missing ECS scope")
	}
}

// TestLiveSocketProbing runs the probe sequence against the simulated
// services mounted on REAL loopback UDP/TCP sockets, with the prober's
// exchanges going through the production dnsnet clients — the cachescan
// tool's path, verified end to end.
func TestLiveSocketProbing(t *testing.T) {
	s := newSystem(t, false)
	// Route loopback sources to PoP 0 (the vantage registration path uses
	// exact source addresses, which NAT to 127.0.0.1 here).
	s.Google.SetClientRouter(func(netx.Addr) int { return 0 })

	authSrv := dnsnet.NewServer(s.Auth)
	authAddr, err := authSrv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer authSrv.Close()

	gSrv := dnsnet.NewServer(s.Google.TCP())
	gAddr, err := gSrv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gSrv.Close()

	tcp := &dnsnet.TCPClient{Timeout: 2 * time.Second}
	defer tcp.Close()
	udp := &dnsnet.UDPClient{Timeout: 2 * time.Second}
	ctx := context.Background()

	// Pre-scan one /24 against the authoritative over UDP.
	target := netx.MustParsePrefix("100.80.9.0/24")
	q := dnswire.NewQuery(2, "www.youtube.com", dnswire.TypeA).WithECS(target)
	resp, err := udp.Exchange(ctx, authAddr.String(), q)
	if err != nil {
		t.Fatal(err)
	}
	scope := netx.PrefixFrom(target.Addr(), int(resp.EDNS.ECS.ScopePrefixLen))
	if scope.Bits() == 0 {
		t.Fatal("authoritative returned scope 0 for ECS domain")
	}

	// Cold snoop over TCP: miss.
	snoop := func(id uint16) *dnswire.Message {
		m := dnswire.NewQuery(id, "www.youtube.com", dnswire.TypeA).WithECS(scope)
		m.RecursionDesired = false
		return m
	}
	resp, err = tcp.Exchange(ctx, gAddr.String(), snoop(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 0 {
		t.Fatal("cold cache returned answers")
	}

	// Fill via RD=1, then redundant snoops find it.
	if _, err := tcp.Exchange(ctx, gAddr.String(), dnswire.NewQuery(4, "www.youtube.com", dnswire.TypeA).WithECS(scope)); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 5; i++ {
		resp, err = tcp.Exchange(ctx, gAddr.String(), snoop(uint16(5+i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) > 0 {
			hits++
			if resp.EDNS.ECS.ScopePrefixLen == 0 {
				t.Error("hit with scope 0")
			}
		}
	}
	if hits == 0 {
		t.Error("no snoop found the filled entry across pools")
	}
}

func TestProberConfigScalesSamples(t *testing.T) {
	s := newSystem(t, false)
	cfg := s.ProberConfig()
	if cfg.CalibrationSamples < 200 {
		t.Errorf("calibration samples = %d", cfg.CalibrationSamples)
	}
	if cfg.GeoDB == nil || cfg.Seed != s.World.Cfg.Seed {
		t.Error("prober config incomplete")
	}
}

func TestMemNetCampaignSmoke(t *testing.T) {
	// A minimal one-pass campaign through the full wiring.
	s := newSystem(t, false)
	cfg := s.ProberConfig()
	cfg.Duration = 6 * time.Hour
	cfg.Passes = 1
	cfg.Domains = s.ProbeDomains()[:1] // google only
	// Every probing stage in order, as the campaign chain runs them.
	ctx, p, camp := context.Background(), s.Prober(cfg), cacheprobe.NewCampaign()
	pops, err := p.DiscoverPoPs(ctx)
	if err == nil {
		err = p.PreScan(ctx, camp)
	}
	if err != nil {
		t.Fatal(err)
	}
	p.Calibrate(ctx, pops, camp)
	start := cfg.Clock.Now()
	asg := p.BuildAssignments(pops, s.PoPCoords(), camp)
	if _, err := p.ProbePassDelta(ctx, pops, asg, 0, start, camp); err != nil {
		t.Fatal(err)
	}
	p.FinishProbing(start)
	if len(camp.ActiveScopes()) == 0 {
		t.Error("single-domain single-pass campaign found nothing")
	}
}
