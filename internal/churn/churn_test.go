package churn

import (
	"strings"
	"testing"
	"time"

	"clientmap/internal/world"
)

func TestParseFull(t *testing.T) {
	c, err := Parse("realloc=4@6h,drift=0.1@12h,diurnal=0.2@8h,pop=fra@3h+6h,chromium=off@12h")
	if err != nil {
		t.Fatal(err)
	}
	if c.Realloc != (Realloc{Count: 4, Every: 6 * time.Hour}) {
		t.Fatalf("realloc = %+v", c.Realloc)
	}
	if c.Drift != (Drift{Sigma: 0.1, Every: 12 * time.Hour}) {
		t.Fatalf("drift = %+v", c.Drift)
	}
	if c.Diurnal != (Diurnal{Delta: 0.2, Every: 8 * time.Hour}) {
		t.Fatalf("diurnal = %+v", c.Diurnal)
	}
	if len(c.PoPs) != 1 || c.PoPs[0] != (PoPWindow{PoP: "fra", Start: 3 * time.Hour, Duration: 6 * time.Hour}) {
		t.Fatalf("pops = %+v", c.PoPs)
	}
	if !c.ChromiumOff || c.ChromiumOffAt != 12*time.Hour {
		t.Fatalf("chromium = %v@%v", c.ChromiumOff, c.ChromiumOffAt)
	}
	if !c.Enabled() {
		t.Fatal("full config not enabled")
	}
}

func TestParseEmptyAndOff(t *testing.T) {
	for _, spec := range []string{"", "off", "  off  ", ",", " , "} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if c.Enabled() {
			t.Fatalf("Parse(%q) enabled churn", spec)
		}
		if got := c.String(); got != "off" {
			t.Fatalf("Parse(%q).String() = %q, want off", spec, got)
		}
	}
}

// Empty entries are skipped, not rejected: a trailing or doubled comma
// does not change what a spec means.
func TestParseSkipsEmptyEntries(t *testing.T) {
	want, err := Parse("realloc=2@2h,chromium=off@3h")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"realloc=2@2h,chromium=off@3h,", ",realloc=2@2h, ,chromium=off@3h"} {
		if got, err := Parse(spec); err != nil || got.String() != want.String() {
			t.Errorf("Parse(%q) = %q, %v; want %q", spec, got.String(), err, want.String())
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"realloc=-1@6h",
		"realloc=4@0s",
		"realloc=4",
		"drift=-0.1@1h",
		"drift=NaN@1h",
		"drift=0.1@0s",
		"diurnal=1.5@1h",
		"diurnal=0.2@-1h",
		"pop=@1h+1h",
		"pop=fra@1h",
		"pop=fra@-1h+1h",
		"pop=fra@1h+0s",
		"chromium=on@1h",
		"chromium=off",
		"chromium=off@-1h",
		"bogus=1",
		"realloc",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestStringFixpoint(t *testing.T) {
	spec := "realloc=4@6h0m0s,drift=0.1@12h0m0s,diurnal=0.2@8h0m0s,pop=fra@3h0m0s+6h0m0s,chromium=off@12h0m0s"
	c, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != spec {
		t.Fatalf("String() = %q, want %q", got, spec)
	}
	if c.Fingerprint() != c.String() {
		t.Fatal("Fingerprint != String")
	}
}

func testWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 11, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPlanDeterministicAndOrdered(t *testing.T) {
	c, err := Parse("realloc=3@2h,drift=0.1@5h,diurnal=0.2@7h,pop=fra@3h+6h,chromium=off@10h")
	if err != nil {
		t.Fatal(err)
	}
	c.Seed = 7
	w1, w2 := testWorld(t), testWorld(t)
	p1 := c.Plan(24, w1)
	p2 := c.Plan(24, w2)
	if len(p1) == 0 {
		t.Fatal("empty plan")
	}
	if len(p1) != len(p2) {
		t.Fatalf("plan lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("plan diverges at %d: %+v vs %+v", i, p1[i], p2[i])
		}
	}
	for i := 1; i < len(p1); i++ {
		if p1[i-1].Hour > p1[i].Hour ||
			(p1[i-1].Hour == p1[i].Hour && p1[i-1].Kind > p1[i].Kind) {
			t.Fatalf("plan out of (hour, kind) order at %d: %+v then %+v", i, p1[i-1], p1[i])
		}
	}
	// The realloc process fires at hours 2,4,...,22 with 3 events each.
	reallocs := 0
	for _, ev := range p1 {
		if ev.Kind == KindRealloc {
			reallocs++
			if ev.NewASIdx == w1.GoogleASIdx() {
				t.Fatal("realloc moved a prefix into the Google AS")
			}
		}
	}
	if want := 11 * 3; reallocs != want {
		t.Fatalf("%d realloc events, want %d", reallocs, want)
	}
}

func TestPlanPoPWindowAndEventsAt(t *testing.T) {
	c, err := Parse("pop=fra@3h+6h,pop=gru@20h+10h")
	if err != nil {
		t.Fatal(err)
	}
	plan := c.Plan(24, testWorld(t))
	// fra: withdraw at 3, announce at 9. gru: withdraw at 20, announce
	// at 30 — beyond the horizon, so the withdraw has no matching
	// announce.
	want := []Event{
		{Hour: 3, Kind: KindPoPWithdraw, PoP: "fra"},
		{Hour: 9, Kind: KindPoPAnnounce, PoP: "fra"},
		{Hour: 20, Kind: KindPoPWithdraw, PoP: "gru"},
	}
	if len(plan) != len(want) {
		t.Fatalf("plan = %+v, want %+v", plan, want)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Fatalf("plan[%d] = %+v, want %+v", i, plan[i], want[i])
		}
	}
	if evs := EventsAt(plan, 9); len(evs) != 1 || evs[0].Kind != KindPoPAnnounce {
		t.Fatalf("EventsAt(9) = %+v", evs)
	}
	if evs := EventsAt(plan, 10); len(evs) != 0 {
		t.Fatalf("EventsAt(10) = %+v, want empty", evs)
	}
}

func TestApplyRealloc(t *testing.T) {
	c := Config{Seed: 7, Realloc: Realloc{Count: 5, Every: time.Hour}}
	w := testWorld(t)
	plan := c.Plan(4, w)
	var ev *Event
	for i := range plan {
		if plan[i].Kind == KindRealloc && plan[i].NewUsers > 0 {
			ev = &plan[i]
			break
		}
	}
	if ev == nil {
		t.Skip("no live realloc in plan sample")
	}
	before, ok := w.PrefixInfoOf(ev.Prefix)
	if !ok {
		t.Fatalf("planned prefix %v not in world", ev.Prefix)
	}
	oldAS := before.ASIdx
	c.Apply(*ev, w)
	after, _ := w.PrefixInfoOf(ev.Prefix)
	if after.ASIdx != ev.NewASIdx || after.ASIdx == oldAS {
		t.Fatalf("ASIdx = %d, want %d (old %d)", after.ASIdx, ev.NewASIdx, oldAS)
	}
	if after.Users != ev.NewUsers {
		t.Fatalf("Users = %v, want %v", after.Users, ev.NewUsers)
	}
	// The announcement trie now attributes the /24 to the new AS.
	if got, _, ok := w.Announcements().Lookup(ev.Prefix.Addr()); !ok || got != ev.NewASIdx {
		t.Fatalf("announcement lookup = %d,%v, want %d", got, ok, ev.NewASIdx)
	}
}

func TestApplyDriftDeterministic(t *testing.T) {
	c := Config{Seed: 7, Drift: Drift{Sigma: 0.2, Every: time.Hour}}
	w1, w2 := testWorld(t), testWorld(t)
	ev := Event{Hour: 1, Kind: KindDrift, Tick: 1, Sigma: 0.2}
	c.Apply(ev, w1)
	c.Apply(ev, w2)
	changed := 0
	for i := range w1.ASes {
		if w1.ASes[i].GoogleDNSShare != w2.ASes[i].GoogleDNSShare {
			t.Fatalf("drift not deterministic at AS %d", i)
		}
		if w1.ASes[i].GoogleDNSShare != testWorld(t).ASes[i].GoogleDNSShare {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("drift changed no shares")
	}
}

func TestApplyChromiumOff(t *testing.T) {
	c := Config{Seed: 7}
	w := testWorld(t)
	if w.Cfg.Params.ChromiumShare <= 0 {
		t.Fatal("world starts with no Chromium share")
	}
	c.Apply(Event{Kind: KindChromiumOff}, w)
	if w.Cfg.Params.ChromiumShare != 0 {
		t.Fatalf("ChromiumShare = %v after deprecation", w.Cfg.Params.ChromiumShare)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindRealloc; k <= KindChromiumOff; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind-") {
			t.Fatalf("Kind(%d).String() = %q", k, s)
		}
	}
}
