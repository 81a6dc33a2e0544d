package snapshot

import (
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
)

// Incremental artifacts of the shard/scatter/gather pipeline.
//
// A probing pass no longer checkpoints the cumulative campaign: it
// persists a PassDelta — the pass's own evidence plus the artifact hash
// of the upstream checkpoint it applies to — so per-pass checkpoint size
// tracks the pass, not the campaign length. Shard runners persist
// ShardResults, which the gather stage folds into the pass's delta.

// EncodePassDelta appends one pass's incremental evidence.
func EncodePassDelta(w *Writer, d *cacheprobe.PassDelta) {
	w.String(d.Base)
	w.Int(d.Pass)
	w.Int(d.Passes)
	w.Time(d.PassTime)
	w.Int(d.ProbesSent)

	w.Int(len(d.Assigned))
	for _, k := range SortedKeys(d.Assigned) {
		w.String(k)
		w.Int(d.Assigned[k])
	}

	w.Int(len(d.Hits))
	for i := range d.Hits {
		h := &d.Hits[i]
		w.String(h.Domain)
		EncodePrefix(w, h.QueryScope)
		EncodePrefix(w, h.RespScope)
		w.String(h.PoP)
		w.Time(h.At)
	}

	w.Int(len(d.Metrics))
	for _, k := range SortedKeys(d.Metrics) {
		w.String(k)
		w.Varint(d.Metrics[k])
	}

	encodeHealthLedger(w, &d.Health)
}

// DecodePassDelta reads a delta written by EncodePassDelta.
func DecodePassDelta(r *Reader) (*cacheprobe.PassDelta, error) {
	d := &cacheprobe.PassDelta{
		Base:       r.String(),
		Pass:       r.Int(),
		Passes:     r.Int(),
		PassTime:   r.Time(),
		ProbesSent: r.Int(),
	}
	if n := r.SliceLen(2); n > 0 {
		d.Assigned = make(map[string]int, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			d.Assigned[k] = r.Int()
		}
	}
	if n := r.SliceLen(7); n > 0 {
		d.Hits = make([]cacheprobe.DeltaHit, n)
		for i := range d.Hits {
			d.Hits[i] = cacheprobe.DeltaHit{
				Domain:     r.String(),
				QueryScope: DecodePrefix(r),
				RespScope:  DecodePrefix(r),
				PoP:        r.String(),
				At:         r.Time(),
			}
		}
	}
	d.Metrics = metrics.Ledger{}
	if n := r.Int(); n > 0 {
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			d.Metrics[k] = r.Varint()
		}
	}
	decodeHealthLedger(r, &d.Health)
	return d, r.Err()
}

// EncodeShardResult appends one shard's execution output. Hit-dependent
// fields (response scope, hit time) are written only for hits.
func EncodeShardResult(w *Writer, s *cacheprobe.ShardResult) {
	w.Int(s.Pass)
	w.Int(len(s.Units))
	for _, u := range s.Units {
		w.Int(u.PoPIndex)
		w.String(u.PoP)
		w.Int(u.Lo)
		w.Int(u.Hi)
	}
	w.Int(len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		w.Int(t.PoPIndex)
		w.Int(t.TaskIndex)
		w.Bool(t.Hit)
		if t.Hit {
			EncodePrefix(w, t.RespScope)
			w.Time(t.At)
		}
		w.Int(t.Probes)
		w.Int(t.RetrySpent)
		w.Int(t.RetryRecovered)
		w.Int(t.RetryExhausted)
		w.Int(t.HedgeFired)
		w.Int(t.HedgeWon)
	}

	w.Int(len(s.Metrics))
	for _, k := range SortedKeys(s.Metrics) {
		w.String(k)
		w.Varint(s.Metrics[k])
	}

	w.Int(len(s.Windows))
	for _, target := range SortedKeys(s.Windows) {
		w.String(target)
		sums := s.Windows[target]
		w.Int(len(sums))
		for _, sum := range sums {
			w.Varint(sum.Index)
			w.Varint(sum.OK)
			w.Varint(sum.Fail)
		}
	}
}

// DecodeShardResult reads a shard result written by EncodeShardResult.
func DecodeShardResult(r *Reader) (*cacheprobe.ShardResult, error) {
	s := &cacheprobe.ShardResult{Pass: r.Int()}
	if n := r.SliceLen(4); n > 0 {
		s.Units = make([]cacheprobe.ShardUnit, n)
		for i := range s.Units {
			s.Units[i] = cacheprobe.ShardUnit{
				PoPIndex: r.Int(),
				PoP:      r.String(),
				Lo:       r.Int(),
				Hi:       r.Int(),
			}
		}
	}
	if n := r.SliceLen(9); n > 0 {
		s.Tasks = make([]cacheprobe.ShardTaskResult, n)
		for i := range s.Tasks {
			t := &s.Tasks[i]
			t.PoPIndex = r.Int()
			t.TaskIndex = r.Int()
			t.Hit = r.Bool()
			if t.Hit {
				t.RespScope = DecodePrefix(r)
				t.At = r.Time()
			}
			t.Probes = r.Int()
			t.RetrySpent = r.Int()
			t.RetryRecovered = r.Int()
			t.RetryExhausted = r.Int()
			t.HedgeFired = r.Int()
			t.HedgeWon = r.Int()
		}
	}
	s.Metrics = metrics.Ledger{}
	if n := r.Int(); n > 0 {
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			s.Metrics[k] = r.Varint()
		}
	}
	if n := r.SliceLen(2); n > 0 {
		s.Windows = make(map[string][]health.WindowSum, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			target := r.String()
			sums := make([]health.WindowSum, r.SliceLen(3))
			for j := range sums {
				sums[j] = health.WindowSum{Index: r.Varint(), OK: r.Varint(), Fail: r.Varint()}
			}
			s.Windows[target] = sums
		}
	}
	return s, r.Err()
}
