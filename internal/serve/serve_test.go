package serve

import (
	"math"
	"testing"

	"clientmap/internal/netx"
)

func TestBuildScopes(t *testing.T) {
	cm := testClientMap(t)
	if len(cm.Scopes) != 3 {
		t.Fatalf("got %d scopes, want 3", len(cm.Scopes))
	}
	// Sorted by (addr, bits): 192.0.2.0/24, 198.51.100.0/23, 203.0.113.128/25.
	wantOrder := []string{"192.0.2.0/24", "198.51.100.0/23", "203.0.113.128/25"}
	for i, w := range wantOrder {
		if got := cm.Scopes[i].Scope.String(); got != w {
			t.Errorf("scope %d = %s, want %s", i, got, w)
		}
	}

	// 192.0.2.0/24 aggregates google (5 hits, mask 1011) + wikipedia
	// (2 hits, mask 0100) at the same PoP.
	s := cm.Scopes[0]
	if s.Hits != 7 || s.Domains != 2 || s.PassMask != 0b1111 {
		t.Errorf("192.0.2.0/24 evidence = hits %d domains %d mask %b", s.Hits, s.Domains, s.PassMask)
	}
	if len(s.PoPs) != 1 || s.PoPs[0].PoP != "fra" || s.PoPs[0].Hits != 7 {
		t.Errorf("192.0.2.0/24 PoPs = %+v", s.PoPs)
	}
	if want := Confidence(0b1111, 4); s.Confidence != want {
		t.Errorf("confidence = %v, want %v", s.Confidence, want)
	}
}

func TestBuildASes(t *testing.T) {
	cm := testClientMap(t)
	if len(cm.ASes) != 2 {
		t.Fatalf("got %d ASes, want 2: %+v", len(cm.ASes), cm.ASes)
	}
	// AS64500: 192.0.2.0/24 (1) + 198.51.100.0/23 (2) active of 5 announced.
	a := cm.ASes[0]
	if a.ASN != 64500 || a.Active24s != 3 || a.Announced24s != 5 {
		t.Errorf("AS64500 = %+v", a)
	}
	// Its max scope confidence is the /24's (all 4 passes).
	if want := Confidence(0b1111, 4); a.Confidence != want {
		t.Errorf("AS64500 confidence = %v, want %v", a.Confidence, want)
	}
	// AS64501: the /25 folds to its containing /24.
	b := cm.ASes[1]
	if b.ASN != 64501 || b.Active24s != 1 || b.Announced24s != 1 {
		t.Errorf("AS64501 = %+v", b)
	}
}

func TestBuildOrigins(t *testing.T) {
	cm := testClientMap(t)
	if len(cm.Origins) != 3 {
		t.Fatalf("got %d origins, want 3", len(cm.Origins))
	}
	for i := 1; i < len(cm.Origins); i++ {
		if cm.Origins[i-1].Prefix.Compare(cm.Origins[i].Prefix) >= 0 {
			t.Errorf("origins unsorted at %d", i)
		}
	}
}

func TestBuildTrafficFromVolume(t *testing.T) {
	cm := testClientMap(t)
	if len(cm.Traffic) != 3 {
		t.Fatalf("got %d traffic bins, want 3", len(cm.Traffic))
	}
	var total float64
	for _, b := range cm.Traffic {
		total += b.Weight
	}
	if total != 16 {
		t.Errorf("total weight = %v, want 16", total)
	}
}

func TestBuildTrafficUniformFallback(t *testing.T) {
	cm := Build(BuildInput{Meta: testMeta(), Campaign: testCampaign(), RV: testRV(t)})
	// Active /24s: 192.0.2.0/24, 2× under the /23, and the /25's parent.
	if len(cm.Traffic) != 4 {
		t.Fatalf("got %d uniform bins, want 4", len(cm.Traffic))
	}
	for _, b := range cm.Traffic {
		if b.Weight != 1 {
			t.Errorf("uniform weight = %v for %s", b.Weight, b.Slash24)
		}
	}
}

func TestBuildWithoutRV(t *testing.T) {
	cm := Build(BuildInput{Meta: testMeta(), Campaign: testCampaign()})
	if len(cm.ASes) != 0 || len(cm.Origins) != 0 {
		t.Errorf("prefix-only build grew AS data: %d ASes, %d origins", len(cm.ASes), len(cm.Origins))
	}
	if err := cm.Validate(); err != nil {
		t.Errorf("prefix-only map invalid: %v", err)
	}
}

func TestConfidence(t *testing.T) {
	cases := []struct {
		mask   uint64
		passes int
		want   float64
	}{
		{0, 4, 1.0 / 6},
		{0b1, 4, 2.0 / 6},
		{0b1111, 4, 5.0 / 6},
		{0b11, 2, 3.0 / 4},
		{0xFFFFFFFFFFFFFFFF, 4, 5.0 / 6}, // hit count clamped to passes
		{0b1, 0, 2.0 / 3},                // zero passes defended to 1
	}
	for _, c := range cases {
		if got := Confidence(c.mask, c.passes); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Confidence(%b, %d) = %v, want %v", c.mask, c.passes, got, c.want)
		}
	}
	// Confidence is always strictly inside (0, 1): Validate depends on it.
	for passes := 0; passes <= 64; passes++ {
		for _, mask := range []uint64{0, 1, 0xFF, ^uint64(0)} {
			c := Confidence(mask, passes)
			if c <= 0 || c >= 1 {
				t.Fatalf("Confidence(%x, %d) = %v out of (0,1)", mask, passes, c)
			}
		}
	}
}

func TestValidateRejectsDisorder(t *testing.T) {
	good := testClientMap(t)

	swapScopes := *good
	swapScopes.Scopes = append([]ScopeEvidence(nil), good.Scopes...)
	swapScopes.Scopes[0], swapScopes.Scopes[1] = swapScopes.Scopes[1], swapScopes.Scopes[0]
	if swapScopes.Validate() == nil {
		t.Error("unsorted scopes passed Validate")
	}

	badConf := *good
	badConf.Scopes = append([]ScopeEvidence(nil), good.Scopes...)
	badConf.Scopes[0].Confidence = 1.5
	if badConf.Validate() == nil {
		t.Error("confidence > 1 passed Validate")
	}

	dupAS := *good
	dupAS.ASes = append([]ASEvidence(nil), good.ASes...)
	dupAS.ASes[1].ASN = dupAS.ASes[0].ASN
	if dupAS.Validate() == nil {
		t.Error("duplicate ASN passed Validate")
	}

	badTraffic := *good
	badTraffic.Traffic = append([]TrafficBin(nil), good.Traffic...)
	badTraffic.Traffic[0].Weight = -1
	if badTraffic.Validate() == nil {
		t.Error("negative traffic weight passed Validate")
	}
}

func TestBuildDeterministic(t *testing.T) {
	// Two independent builds from equal inputs must encode identically —
	// map iteration order must not leak into the artifact.
	a, _ := Marshal(testClientMap(t))
	b, _ := Marshal(testClientMap(t))
	if string(a) != string(b) {
		t.Fatal("two builds of the same campaign encoded differently")
	}
}

func TestPrefixLess(t *testing.T) {
	p1 := netx.PrefixFrom(netx.AddrFrom4(10, 0, 0, 0), 8)
	p2 := netx.PrefixFrom(netx.AddrFrom4(10, 0, 0, 0), 16)
	p3 := netx.PrefixFrom(netx.AddrFrom4(10, 1, 0, 0), 16)
	if p1.Compare(p2) >= 0 || p2.Compare(p3) >= 0 || p3.Compare(p1) <= 0 {
		t.Error("serve's scope order is not (addr, bits)")
	}
}
