package churn

import (
	"reflect"
	"testing"

	"clientmap/internal/snapshot"
)

func TestEventsRoundTrip(t *testing.T) {
	evs := []Event{
		{Hour: 3, Kind: KindRealloc, Tick: 7, Prefix: 0x010203, NewASN: 64500, NewASIdx: 4,
			NewUsers: 1.5, NewActivity: 0.25, NewDiurnality: 0.5, NewResolverIdx: 2},
		{Hour: 5, Kind: KindPoPWithdraw, PoP: "fra"},
		{Hour: 6, Kind: KindDrift, Tick: 1, Sigma: 0.1, Delta: -0.2},
	}
	for _, want := range [][]Event{nil, evs} {
		data, _ := snapshot.Marshal(snapshot.Header{Kind: "k"}, func(w *snapshot.Writer) { EncodeEvents(w, want) })
		_, r, _, err := snapshot.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEvents(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("events round-trip:\n got %+v\nwant %+v", got, want)
		}
	}
}
