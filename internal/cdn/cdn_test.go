package cdn

import (
	"testing"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

func testDatasets(t testing.TB, seed int) (*Datasets, *traffic.Model) {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 61, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(61, anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())
	return Collect(model, clockx.Epoch), model
}

func TestCollectDeterministic(t *testing.T) {
	a, _ := testDatasets(t, 61)
	b, _ := testDatasets(t, 61)
	if a.Clients.Total != b.Clients.Total || a.Resolvers.Total != b.Resolvers.Total || a.ECS.Total != b.ECS.Total {
		t.Fatal("collections differ across identical runs")
	}
}

func TestClientsCoverMostActivePrefixes(t *testing.T) {
	ds, model := testDatasets(t, 61)
	if ds.Clients.Total == 0 {
		t.Fatal("no CDN volume")
	}
	active, seen := 0, 0
	for i := range model.W.Prefixes {
		pi := &model.W.Prefixes[i]
		if !pi.HasClients() {
			// Inactive prefixes must never appear.
			if _, ok := ds.Clients.Volume[pi.P]; ok {
				t.Fatalf("inactive prefix %v in CDN clients", pi.P)
			}
			continue
		}
		active++
		if _, ok := ds.Clients.Volume[pi.P]; ok {
			seen++
		}
	}
	frac := float64(seen) / float64(active)
	// The CDN is the broadest view: nearly every client prefix shows up in
	// a day, but a few of the tiniest do not.
	if frac < 0.85 {
		t.Errorf("CDN saw only %.0f%% of active prefixes", frac*100)
	}
	if frac == 1.0 {
		t.Log("CDN saw every active prefix (possible at tiny scale)")
	}
}

func TestResolversIncludeGoogleEgress(t *testing.T) {
	ds, model := testDatasets(t, 61)
	if ds.Resolvers.Total == 0 {
		t.Fatal("no resolver observations")
	}
	googleIPs := int64(0)
	ispIPs := int64(0)
	google := model.W.GoogleAS().Blocks[0]
	for addr, n := range ds.Resolvers.ClientIPs {
		if google.Contains(addr) {
			googleIPs += n
		} else {
			ispIPs += n
		}
	}
	if googleIPs == 0 {
		t.Error("no client IPs attributed to Google Public DNS egress")
	}
	if ispIPs == 0 {
		t.Error("no client IPs attributed to ISP resolvers")
	}
	// Google share should be near the configured mean (~30%), well below
	// the ISP share.
	frac := float64(googleIPs) / float64(googleIPs+ispIPs)
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("google resolver share %.2f outside plausible band", frac)
	}
	_ = model
}

func TestECSPrefixesAreClientSlash24s(t *testing.T) {
	ds, model := testDatasets(t, 61)
	if ds.ECS.Total == 0 {
		t.Fatal("no ECS observations")
	}
	for p := range ds.ECS.Queries {
		if p.Bits() != 24 {
			t.Fatalf("ECS prefix %v is not a /24", p)
		}
		pi, ok := model.W.PrefixInfoOf(p.FirstSlash24())
		if !ok || !pi.HasClients() {
			t.Fatalf("ECS prefix %v has no clients in ground truth", p)
		}
	}
	// ECS is a subset view (only Google-share DNS for one domain): smaller
	// than the HTTP view.
	if len(ds.ECS.Queries) >= len(ds.Clients.Volume) {
		t.Errorf("ECS view (%d) not smaller than HTTP view (%d)",
			len(ds.ECS.Queries), len(ds.Clients.Volume))
	}
}

func TestECSSlash24sSet(t *testing.T) {
	ds, _ := testDatasets(t, 61)
	set := ds.ECS.ECSSlash24s()
	if set.Len() != len(ds.ECS.Queries) {
		t.Errorf("set has %d members, map has %d", set.Len(), len(ds.ECS.Queries))
	}
}
