package cacheprobe

import (
	"testing"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
)

func testAssignments() *Assignments {
	mk := func(addr uint32) netx.Prefix { return netx.PrefixFrom(netx.Addr(addr), 24) }
	return &Assignments{
		popNames: []string{"fra", "lhr"},
		tasks: [][]probeTask{
			{
				{domain: 0, scope: mk(0x0A000000)},
				{domain: 0, scope: mk(0x0A000100)},
				{domain: 1, scope: mk(0x0A000200)},
			},
			{
				{domain: 0, scope: mk(0x0B000000)},
				{domain: 1, scope: mk(0x0B000100)},
			},
		},
		domains: []string{"a.example", "b.example"},
		coords:  map[string]geo.Coord{"fra": {Lat: 50, Lon: 8}, "lhr": {Lat: 51, Lon: 0}},
	}
}

func TestAssignmentsAccessors(t *testing.T) {
	a := testAssignments()
	if a.NumPoPs() != 2 {
		t.Fatalf("NumPoPs = %d", a.NumPoPs())
	}
	if a.PoPName(0) != "fra" || a.PoPName(1) != "lhr" {
		t.Fatal("PoPName mismatch")
	}
	if a.NumTasks(0) != 3 || a.NumTasks(1) != 2 {
		t.Fatal("NumTasks mismatch")
	}
	domain, scope := a.TaskAt(0, 2)
	if domain != "b.example" || scope != netx.PrefixFrom(netx.Addr(0x0A000200), 24) {
		t.Fatalf("TaskAt(0,2) = %s %v", domain, scope)
	}
}

func TestSubset(t *testing.T) {
	a := testAssignments()
	sub := a.Subset([][]int{{0, 2}, nil})
	if sub.NumPoPs() != 2 {
		t.Fatalf("subset dropped PoP slots: %d", sub.NumPoPs())
	}
	if sub.NumTasks(0) != 2 || sub.NumTasks(1) != 0 {
		t.Fatalf("subset tasks = %d,%d, want 2,0", sub.NumTasks(0), sub.NumTasks(1))
	}
	if d, _ := sub.TaskAt(0, 0); d != "a.example" {
		t.Fatalf("TaskAt(0,0) domain = %s", d)
	}
	if d, s := sub.TaskAt(0, 1); d != "b.example" || s != netx.PrefixFrom(netx.Addr(0x0A000200), 24) {
		t.Fatalf("TaskAt(0,1) = %s %v", d, s)
	}
	// Out-of-range indices are ignored, not panics.
	sub2 := a.Subset([][]int{{-1, 1, 99}, {0}})
	if sub2.NumTasks(0) != 1 || sub2.NumTasks(1) != 1 {
		t.Fatalf("subset with junk indices = %d,%d, want 1,1", sub2.NumTasks(0), sub2.NumTasks(1))
	}
	// The original is untouched.
	if a.NumTasks(0) != 3 {
		t.Fatal("Subset mutated the source assignments")
	}
}

func TestSubsetSharesMetadata(t *testing.T) {
	a := testAssignments()
	sub := a.Subset([][]int{{0}, {1}})
	if &sub.popNames[0] != &a.popNames[0] {
		t.Fatal("popNames not shared")
	}
	if sub.coords["fra"] != a.coords["fra"] {
		t.Fatal("coords not shared")
	}
}
