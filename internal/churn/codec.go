package churn

import (
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

// Codec for churn events. The streaming mode re-derives the churn plan
// from (seed, spec, world) on every run, but each hour checkpoint also
// carries the events it applied: on restore the stream verifies the
// decoded events against the re-derived plan, so a checkpoint written
// under a different plan derivation (a changed redraw formula, a stale
// binary) fails loudly instead of silently rebuilding a different world.

// EncodeEvents appends an event list to w.
func EncodeEvents(w *snapshot.Writer, evs []Event) {
	w.Int(len(evs))
	for _, e := range evs {
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
}

// DecodeEvents reads an event list written by EncodeEvents.
func DecodeEvents(r *snapshot.Reader) ([]Event, error) {
	// Every event encodes to at least 8 bytes, so SliceLen bounds both
	// the preallocation and the append loop against the payload that is
	// actually there — a forged count can neither demand gigabytes up
	// front nor grow them one zero event at a time.
	n := r.SliceLen(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	var out []Event
	if n > 0 {
		out = make([]Event, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, Event{
			Hour:           r.Int(),
			Kind:           Kind(r.Uvarint()),
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
		})
	}
	return out, r.Err()
}
