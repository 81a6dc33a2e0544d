package snapshot

import (
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/health"
	"clientmap/internal/netx"
)

// Artifact kinds and their encoding versions. Bump a version whenever the
// corresponding encode/decode pair changes shape; stale snapshots then
// fail with ErrVersionMismatch instead of decoding garbage.
const (
	KindCampaign      = "cacheprobe.Campaign"
	KindCampaignDelta = "cacheprobe.PassDelta"
	KindShardResult   = "cacheprobe.ShardResult"
)

const (
	// VersionCampaign 2: added the fault/retry reliability section.
	// VersionCampaign 3: added the metrics instrumentation ledger.
	// VersionCampaign 4: added brownout/flap drops and the health ledger
	// (breaker windows + transitions, hedges, coverage, failovers).
	// VersionCampaign 5: dropped that reliability section and the health
	// ledger's hedge counts; injected faults, retries and hedges live in
	// the metrics ledger only.
	VersionCampaign uint16 = 5
	// VersionCampaignDelta and VersionShardResult cover the shard /
	// scatter/gather pipeline's incremental artifacts (see delta.go).
	// Version 2 of each: dropped the fault-counter section (and, in the
	// delta, the health ledger's hedge counts), as in VersionCampaign 5.
	VersionCampaignDelta uint16 = 2
	VersionShardResult   uint16 = 2
)

// The codec of each kind above, the one declaration the pipeline and
// statefsck share. A pass delta records the checkpoint it applies to.
var (
	CampaignCodec    = &Codec[*cacheprobe.Campaign]{Kind: KindCampaign, Version: VersionCampaign, Encode: EncodeCampaign, Decode: DecodeCampaign}
	PassDeltaCodec   = &Codec[*cacheprobe.PassDelta]{Kind: KindCampaignDelta, Version: VersionCampaignDelta, Encode: EncodePassDelta, Decode: DecodePassDelta, Base: func(d *cacheprobe.PassDelta) string { return d.Base }}
	ShardResultCodec = &Codec[*cacheprobe.ShardResult]{Kind: KindShardResult, Version: VersionShardResult, Encode: EncodeShardResult, Decode: DecodeShardResult}
)

// --- netx helpers ---

// EncodePrefix appends p as (addr, bits).
func EncodePrefix(w *Writer, p netx.Prefix) {
	w.Uvarint(uint64(p.Addr()))
	w.Uvarint(uint64(p.Bits()))
}

// DecodePrefix reads a prefix written by EncodePrefix.
func DecodePrefix(r *Reader) netx.Prefix {
	addr := netx.Addr(r.Uvarint())
	bits := int(r.Uvarint())
	return netx.PrefixFrom(addr, bits)
}

// --- cacheprobe.Campaign ---

// EncodeCampaign appends the full campaign state — the artifact every
// probing-chain checkpoint (pre-scan, calibration, each pass) persists.
func EncodeCampaign(w *Writer, c *cacheprobe.Campaign) {
	w.Int(c.Passes)
	w.Int(c.ProbesSent)
	w.Int(c.PreScanQueries)

	w.Int(len(c.PassTimes))
	for _, t := range c.PassTimes {
		w.Time(t)
	}

	w.Int(len(c.PoPs))
	for _, pop := range SortedKeys(c.PoPs) {
		cal := c.PoPs[pop]
		w.String(pop)
		w.String(cal.PoP)
		w.String(cal.Vantage)
		w.Float64(cal.RadiusKm)
		w.Int(cal.Assigned)
		w.Int(len(cal.HitDistancesKm))
		for _, d := range cal.HitDistancesKm {
			w.Float64(d)
		}
	}

	w.Int(len(c.ScopesByDomain))
	for _, d := range SortedKeys(c.ScopesByDomain) {
		w.String(d)
		scopes := c.ScopesByDomain[d]
		w.Int(len(scopes))
		for _, p := range scopes {
			EncodePrefix(w, p)
		}
	}

	w.Int(len(c.Hits))
	for _, d := range SortedKeys(c.Hits) {
		w.String(d)
		hits := c.Hits[d]
		w.Int(len(hits))
		for _, p := range SortedKeysFunc(hits, netx.Prefix.Compare) {
			h := hits[p]
			EncodePrefix(w, p)
			EncodePrefix(w, h.RespScope)
			EncodePrefix(w, h.QueryScope)
			w.String(h.PoP)
			w.String(h.Domain)
			w.Int(h.Count)
			w.Uvarint(h.PassMask)
			w.Int(len(h.Times))
			for _, t := range h.Times {
				w.Time(t)
			}
		}
	}

	w.Int(len(c.ScopeDiffs))
	for _, d := range SortedKeys(c.ScopeDiffs) {
		w.String(d)
		diffs := c.ScopeDiffs[d]
		w.Int(len(diffs))
		for _, k := range SortedKeys(diffs) {
			w.Int(k)
			w.Int(diffs[k])
		}
	}

	w.Int(len(c.PoPHits))
	for _, pop := range SortedKeys(c.PoPHits) {
		w.String(pop)
		w.Int(c.PoPHits[pop])
	}

	w.Int(len(c.Metrics))
	for _, k := range SortedKeys(c.Metrics) {
		w.String(k)
		w.Varint(c.Metrics[k])
	}

	encodeHealthLedger(w, &c.Health)
}

// encodeHealthLedger appends the campaign's degradation-layer state: the
// breaker's replayable windows, the transition timeline, and the
// coverage / failover accounting. Map iteration is canonicalised by sorted keys.
func encodeHealthLedger(w *Writer, l *health.Ledger) {
	w.Int(len(l.Windows))
	for _, target := range SortedKeys(l.Windows) {
		w.String(target)
		sums := l.Windows[target]
		w.Int(len(sums))
		for _, s := range sums {
			w.Varint(s.Index)
			w.Varint(s.OK)
			w.Varint(s.Fail)
		}
	}
	w.Int(len(l.Transitions))
	for _, tr := range l.Transitions {
		w.String(tr.Target)
		w.Time(tr.At)
		w.Uvarint(uint64(tr.From))
		w.Uvarint(uint64(tr.To))
	}
	w.Int(len(l.Coverage))
	for _, c := range l.Coverage {
		w.Int(c.Pass)
		w.Varint(c.Assigned)
		w.Varint(c.Primary)
		w.Varint(c.Trial)
		w.Varint(c.Alternate)
		w.Varint(c.Fallback)
		w.Varint(c.Lost)
	}
	w.Int(len(l.FailedOver))
	for _, pop := range SortedKeys(l.FailedOver) {
		w.String(pop)
		w.Varint(l.FailedOver[pop])
	}
	w.Int(len(l.LostTasks))
	for _, pop := range SortedKeys(l.LostTasks) {
		w.String(pop)
		tasks := l.LostTasks[pop]
		w.Int(len(tasks))
		for _, ti := range SortedKeys(tasks) {
			w.Int(ti)
			w.Int(tasks[ti])
		}
	}
}

// decodeHealthLedger reads a ledger written by encodeHealthLedger. Empty
// collections decode as nil, matching an in-memory campaign that never
// touched them.
func decodeHealthLedger(r *Reader, l *health.Ledger) {
	if n := r.SliceLen(2); n > 0 {
		l.Windows = make(map[string][]health.WindowSum, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			target := r.String()
			sums := make([]health.WindowSum, r.SliceLen(3))
			for j := range sums {
				sums[j] = health.WindowSum{Index: r.Varint(), OK: r.Varint(), Fail: r.Varint()}
			}
			l.Windows[target] = sums
		}
	}
	if n := r.SliceLen(4); n > 0 {
		l.Transitions = make([]health.Transition, n)
		for i := range l.Transitions {
			l.Transitions[i] = health.Transition{
				Target: r.String(),
				At:     r.Time(),
				From:   health.State(r.Uvarint()),
				To:     health.State(r.Uvarint()),
			}
		}
	}
	if n := r.SliceLen(7); n > 0 {
		l.Coverage = make([]health.PassCoverage, n)
		for i := range l.Coverage {
			l.Coverage[i] = health.PassCoverage{
				Pass:      r.Int(),
				Assigned:  r.Varint(),
				Primary:   r.Varint(),
				Trial:     r.Varint(),
				Alternate: r.Varint(),
				Fallback:  r.Varint(),
				Lost:      r.Varint(),
			}
		}
	}
	if n := r.SliceLen(2); n > 0 {
		l.FailedOver = make(map[string]int64, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			pop := r.String()
			l.FailedOver[pop] = r.Varint()
		}
	}
	if n := r.SliceLen(2); n > 0 {
		l.LostTasks = make(map[string]map[int]int, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			pop := r.String()
			m := r.SliceLen(2)
			tasks := make(map[int]int, m)
			for j := 0; j < m; j++ {
				ti := r.Int()
				tasks[ti] = r.Int()
			}
			l.LostTasks[pop] = tasks
		}
	}
}

// DecodeCampaign reads a campaign written by EncodeCampaign. The decoded
// value is semantically identical to the encoded one: top-level maps are
// always non-nil (as cacheprobe.NewCampaign builds them), nested slices
// and maps are nil when empty.
func DecodeCampaign(r *Reader) (*cacheprobe.Campaign, error) {
	c := cacheprobe.NewCampaign()
	c.Passes = r.Int()
	c.ProbesSent = r.Int()
	c.PreScanQueries = r.Int()

	if n := r.SliceLen(1); n > 0 {
		c.PassTimes = make([]time.Time, n)
		for i := range c.PassTimes {
			c.PassTimes[i] = r.Time()
		}
	}

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		key := r.String()
		cal := &cacheprobe.PoPCalibration{
			PoP:      r.String(),
			Vantage:  r.String(),
			RadiusKm: r.Float64(),
			Assigned: r.Int(),
		}
		if m := r.SliceLen(1); m > 0 {
			cal.HitDistancesKm = make([]float64, m)
			for j := range cal.HitDistancesKm {
				cal.HitDistancesKm[j] = r.Float64()
			}
		}
		c.PoPs[key] = cal
	}

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		d := r.String()
		m := r.SliceLen(2)
		var scopes []netx.Prefix
		if m > 0 {
			scopes = make([]netx.Prefix, m)
			for j := range scopes {
				scopes[j] = DecodePrefix(r)
			}
		}
		c.ScopesByDomain[d] = scopes
	}

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		d := r.String()
		m := r.SliceLen(2)
		hits := make(map[netx.Prefix]*cacheprobe.Hit, m)
		for j := 0; j < m && r.Err() == nil; j++ {
			key := DecodePrefix(r)
			h := &cacheprobe.Hit{
				RespScope:  DecodePrefix(r),
				QueryScope: DecodePrefix(r),
				PoP:        r.String(),
				Domain:     r.String(),
				Count:      r.Int(),
				PassMask:   r.Uvarint(),
			}
			if t := r.SliceLen(1); t > 0 {
				h.Times = make([]time.Time, t)
				for k := range h.Times {
					h.Times[k] = r.Time()
				}
			}
			hits[key] = h
		}
		c.Hits[d] = hits
	}

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		d := r.String()
		m := r.SliceLen(2)
		diffs := make(map[int]int, m)
		for j := 0; j < m; j++ {
			k := r.Int()
			diffs[k] = r.Int()
		}
		c.ScopeDiffs[d] = diffs
	}

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		pop := r.String()
		c.PoPHits[pop] = r.Int()
	}

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		k := r.String()
		c.Metrics[k] = r.Varint()
	}

	decodeHealthLedger(r, &c.Health)
	return c, r.Err()
}
