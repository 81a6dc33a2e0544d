package snapshot

import (
	"clientmap/internal/churn"
	"clientmap/internal/netx"
)

// Codec for churn events. The streaming mode re-derives the churn plan
// from (seed, spec, world) on every run, but each hour checkpoint also
// carries the events it applied: on restore the stream verifies the
// decoded events against the re-derived plan, so a checkpoint written
// under a different plan derivation (a changed redraw formula, a stale
// binary) fails loudly instead of silently rebuilding a different world.

// KindStreamDelta is the artifact kind of one streaming hour's
// checkpoint (churn events + probe delta + DNS observations).
const KindStreamDelta = "stream.HourDelta"

// VersionStreamDelta is the hour-checkpoint encoding version. Version 2:
// the embedded pass delta is VersionCampaignDelta 2.
const VersionStreamDelta uint16 = 2

// EncodeChurnEvent appends one churn event to w.
func EncodeChurnEvent(w *Writer, e churn.Event) {
	w.Int(e.Hour)
	w.Uvarint(uint64(e.Kind))
	w.Int(e.Tick)
	w.Uvarint(uint64(e.Prefix))
	w.Uvarint(uint64(e.NewASN))
	w.Varint(int64(e.NewASIdx))
	w.Float64(float64(e.NewUsers))
	w.Float64(float64(e.NewActivity))
	w.Float64(float64(e.NewDiurnality))
	w.Varint(int64(e.NewResolverIdx))
	w.Float64(e.Sigma)
	w.Float64(e.Delta)
	w.String(e.PoP)
}

// DecodeChurnEvent reads one churn event written by EncodeChurnEvent.
func DecodeChurnEvent(r *Reader) churn.Event {
	return churn.Event{
		Hour:           r.Int(),
		Kind:           churn.Kind(r.Uvarint()),
		Tick:           r.Int(),
		Prefix:         netx.Slash24(r.Uvarint()),
		NewASN:         uint32(r.Uvarint()),
		NewASIdx:       int32(r.Varint()),
		NewUsers:       float32(r.Float64()),
		NewActivity:    float32(r.Float64()),
		NewDiurnality:  float32(r.Float64()),
		NewResolverIdx: int32(r.Varint()),
		Sigma:          r.Float64(),
		Delta:          r.Float64(),
		PoP:            r.String(),
	}
}

// EncodeChurnEvents appends a churn event list to w.
func EncodeChurnEvents(w *Writer, evs []churn.Event) {
	w.Int(len(evs))
	for _, e := range evs {
		EncodeChurnEvent(w, e)
	}
}

// DecodeChurnEvents reads an event list written by EncodeChurnEvents.
func DecodeChurnEvents(r *Reader) ([]churn.Event, error) {
	// Every event encodes to at least 8 bytes, so SliceLen bounds both
	// the preallocation and the append loop against the payload that is
	// actually there — a forged count can neither demand gigabytes up
	// front nor grow them one zero event at a time.
	n := r.SliceLen(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	var out []churn.Event
	if n > 0 {
		out = make([]churn.Event, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, DecodeChurnEvent(r))
	}
	return out, r.Err()
}
