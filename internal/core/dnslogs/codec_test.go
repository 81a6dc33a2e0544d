package dnslogs

import (
	"reflect"
	"testing"

	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

func TestDNSLogsRoundTrip(t *testing.T) {
	res := &Result{
		ResolverCounts: map[netx.Addr]float64{0x08080808: 12.5, 0x01010101: 3},
		TotalQueries:   1e6, PatternMatches: 4242.5, FilteredNames: 17,
		LettersRead: []string{"J", "H", "M"},
		OpenRetries: 3,
	}
	data, hash := ResultCodec.Marshal("fp-test", res)
	if again, _ := ResultCodec.Marshal("fp-test", res); string(again) != string(data) {
		t.Fatal("non-deterministic encoding")
	}
	h, r, got, err := snapshot.Open(data)
	if err != nil || got != hash {
		t.Fatalf("Open: %v, hash %s want %s", err, got, hash)
	}
	if h.Kind != "dnslogs.Result" || h.Version != 2 || ResultCodec.Check(h) != nil {
		t.Fatalf("header %+v: the kind and version are pinned on disk", h)
	}
	dec, err := ResultCodec.Decode(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, res) {
		t.Errorf("dnslogs round-trip mismatch:\ngot  %+v\nwant %+v", dec, res)
	}
}
