package snapshot

import (
	"sort"
	"time"

	"clientmap/internal/apnic"
	"clientmap/internal/asdb"
	"clientmap/internal/cdn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/health"
	"clientmap/internal/netx"
	"clientmap/internal/world"
)

// Artifact kinds and their encoding versions. Bump a version whenever the
// corresponding encode/decode pair changes shape; stale snapshots then
// fail with ErrVersionMismatch instead of decoding garbage.
const (
	KindCampaign      = "cacheprobe.Campaign"
	KindCampaignDelta = "cacheprobe.PassDelta"
	KindShardResult   = "cacheprobe.ShardResult"
	KindDNSLogs       = "dnslogs.Result"
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
	// VersionDNSLogs 2: added the OpenRetries counter.
	VersionDNSLogs uint16 = 2
)

// The codec of each kind above, the one declaration the pipeline and
// statefsck share. A pass delta records the checkpoint it applies to.
var (
	CampaignCodec    = &Codec[*cacheprobe.Campaign]{Kind: KindCampaign, Version: VersionCampaign, Encode: EncodeCampaign, Decode: DecodeCampaign}
	PassDeltaCodec   = &Codec[*cacheprobe.PassDelta]{Kind: KindCampaignDelta, Version: VersionCampaignDelta, Encode: EncodePassDelta, Decode: DecodePassDelta, Base: func(d *cacheprobe.PassDelta) string { return d.Base }}
	ShardResultCodec = &Codec[*cacheprobe.ShardResult]{Kind: KindShardResult, Version: VersionShardResult, Encode: EncodeShardResult, Decode: DecodeShardResult}
	DNSLogsCodec     = &Codec[*dnslogs.Result]{Kind: KindDNSLogs, Version: VersionDNSLogs, Encode: EncodeDNSLogs, Decode: DecodeDNSLogs}
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

func sortPrefixes(ps []netx.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr() != ps[j].Addr() {
			return ps[i].Addr() < ps[j].Addr()
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

func sortedStringKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedU32Keys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedAddrKeys[V any](m map[netx.Addr]V) []netx.Addr {
	keys := make([]netx.Addr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
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
	for _, pop := range sortedStringKeys(c.PoPs) {
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
	for _, d := range sortedStringKeys(c.ScopesByDomain) {
		w.String(d)
		scopes := c.ScopesByDomain[d]
		w.Int(len(scopes))
		for _, p := range scopes {
			EncodePrefix(w, p)
		}
	}

	w.Int(len(c.Hits))
	for _, d := range sortedStringKeys(c.Hits) {
		w.String(d)
		hits := c.Hits[d]
		scopes := make([]netx.Prefix, 0, len(hits))
		for p := range hits {
			scopes = append(scopes, p)
		}
		sortPrefixes(scopes)
		w.Int(len(scopes))
		for _, p := range scopes {
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
	for _, d := range sortedStringKeys(c.ScopeDiffs) {
		w.String(d)
		diffs := c.ScopeDiffs[d]
		keys := make([]int, 0, len(diffs))
		for k := range diffs {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		w.Int(len(keys))
		for _, k := range keys {
			w.Int(k)
			w.Int(diffs[k])
		}
	}

	w.Int(len(c.PoPHits))
	for _, pop := range sortedStringKeys(c.PoPHits) {
		w.String(pop)
		w.Int(c.PoPHits[pop])
	}

	w.Int(len(c.Metrics))
	for _, k := range sortedStringKeys(c.Metrics) {
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
	for _, target := range sortedStringKeys(l.Windows) {
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
	for _, pop := range sortedStringKeys(l.FailedOver) {
		w.String(pop)
		w.Varint(l.FailedOver[pop])
	}
	w.Int(len(l.LostTasks))
	for _, pop := range sortedStringKeys(l.LostTasks) {
		w.String(pop)
		tasks := l.LostTasks[pop]
		keys := make([]int, 0, len(tasks))
		for ti := range tasks {
			keys = append(keys, ti)
		}
		sort.Ints(keys)
		w.Int(len(keys))
		for _, ti := range keys {
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

// --- dnslogs.Result ---

// EncodeDNSLogs appends the DITL crawl result.
func EncodeDNSLogs(w *Writer, res *dnslogs.Result) {
	w.Int(len(res.ResolverCounts))
	for _, a := range sortedAddrKeys(res.ResolverCounts) {
		w.Uvarint(uint64(a))
		w.Float64(res.ResolverCounts[a])
	}
	w.Float64(res.TotalQueries)
	w.Float64(res.PatternMatches)
	w.Int(res.FilteredNames)
	w.Int(len(res.LettersRead))
	for _, l := range res.LettersRead {
		w.String(l)
	}
	w.Int(res.OpenRetries)
}

// DecodeDNSLogs reads a result written by EncodeDNSLogs.
func DecodeDNSLogs(r *Reader) (*dnslogs.Result, error) {
	res := &dnslogs.Result{ResolverCounts: make(map[netx.Addr]float64)}
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		a := netx.Addr(r.Uvarint())
		res.ResolverCounts[a] = r.Float64()
	}
	res.TotalQueries = r.Float64()
	res.PatternMatches = r.Float64()
	res.FilteredNames = r.Int()
	if n := r.SliceLen(1); n > 0 {
		res.LettersRead = make([]string, n)
		for i := range res.LettersRead {
			res.LettersRead[i] = r.String()
		}
	}
	res.OpenRetries = r.Int()
	return res, r.Err()
}

// --- cdn.Datasets ---

// EncodeCDN appends the one-day Microsoft-style collections.
func EncodeCDN(w *Writer, d *cdn.Datasets) {
	w.Time(d.Day)

	w.Int(len(d.Clients.Volume))
	prev := uint64(0)
	keys := make([]netx.Slash24, 0, len(d.Clients.Volume))
	for p := range d.Clients.Volume {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, p := range keys {
		w.Uvarint(uint64(p) - prev)
		prev = uint64(p)
		w.Varint(d.Clients.Volume[p])
	}
	w.Varint(d.Clients.Total)

	w.Int(len(d.Resolvers.ClientIPs))
	for _, a := range sortedAddrKeys(d.Resolvers.ClientIPs) {
		w.Uvarint(uint64(a))
		w.Varint(d.Resolvers.ClientIPs[a])
	}
	w.Varint(d.Resolvers.Total)

	w.Int(len(d.ECS.Queries))
	ecsKeys := make([]netx.Prefix, 0, len(d.ECS.Queries))
	for p := range d.ECS.Queries {
		ecsKeys = append(ecsKeys, p)
	}
	sortPrefixes(ecsKeys)
	for _, p := range ecsKeys {
		EncodePrefix(w, p)
		w.Varint(d.ECS.Queries[p])
	}
	w.Varint(d.ECS.Total)
}

// DecodeCDN reads datasets written by EncodeCDN.
func DecodeCDN(r *Reader) (*cdn.Datasets, error) {
	d := &cdn.Datasets{
		Clients:   &cdn.Clients{Volume: make(map[netx.Slash24]int64)},
		Resolvers: &cdn.Resolvers{ClientIPs: make(map[netx.Addr]int64)},
		ECS:       &cdn.ECSPrefixes{Queries: make(map[netx.Prefix]int64)},
	}
	d.Day = r.Time()

	cur := uint64(0)
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		cur += r.Uvarint()
		d.Clients.Volume[netx.Slash24(cur)] = r.Varint()
	}
	d.Clients.Total = r.Varint()

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		a := netx.Addr(r.Uvarint())
		d.Resolvers.ClientIPs[a] = r.Varint()
	}
	d.Resolvers.Total = r.Varint()

	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		p := DecodePrefix(r)
		d.ECS.Queries[p] = r.Varint()
	}
	d.ECS.Total = r.Varint()
	return d, r.Err()
}

// --- apnic.Estimates ---

// EncodeAPNIC appends the simulated APNIC user estimates.
func EncodeAPNIC(w *Writer, e *apnic.Estimates) {
	w.Int(len(e.Users))
	for _, asn := range sortedU32Keys(e.Users) {
		w.Uvarint(uint64(asn))
		w.Float64(e.Users[asn])
	}
	w.Int(len(e.Impressions))
	for _, asn := range sortedU32Keys(e.Impressions) {
		w.Uvarint(uint64(asn))
		w.Int(e.Impressions[asn])
	}
	w.Int(len(e.CountryUsers))
	for _, c := range sortedStringKeys(e.CountryUsers) {
		w.String(c)
		w.Float64(e.CountryUsers[c])
	}
}

// DecodeAPNIC reads estimates written by EncodeAPNIC.
func DecodeAPNIC(r *Reader) (*apnic.Estimates, error) {
	e := &apnic.Estimates{
		Users:        make(map[uint32]float64),
		Impressions:  make(map[uint32]int),
		CountryUsers: make(map[string]float64),
	}
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		asn := uint32(r.Uvarint())
		e.Users[asn] = r.Float64()
	}
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		asn := uint32(r.Uvarint())
		e.Impressions[asn] = r.Int()
	}
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		c := r.String()
		e.CountryUsers[c] = r.Float64()
	}
	return e, r.Err()
}

// --- asdb.DB ---

// EncodeASDB appends the AS classification database.
func EncodeASDB(w *Writer, db *asdb.DB) {
	w.Int(db.Len())
	type entry struct {
		asn uint32
		cat world.Category
	}
	entries := make([]entry, 0, db.Len())
	db.Range(func(asn uint32, cat world.Category) bool {
		entries = append(entries, entry{asn, cat})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].asn < entries[j].asn })
	for _, e := range entries {
		w.Uvarint(uint64(e.asn))
		w.String(string(e.cat))
	}
}

// DecodeASDB reads a database written by EncodeASDB.
func DecodeASDB(r *Reader) (*asdb.DB, error) {
	n := r.SliceLen(2)
	m := make(map[uint32]world.Category, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		asn := uint32(r.Uvarint())
		m[asn] = world.Category(r.String())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return asdb.FromCategories(m), nil
}
