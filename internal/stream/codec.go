package stream

import (
	"sort"

	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

// Codecs for the streaming checkpoints and for the byte-exact ledger
// comparison the determinism suite makes. The hour-delta kind string
// lives in internal/snapshot (next to the churn-event codec it uses);
// the ledger kind lives here because only this package produces it —
// the kind string namespace is shared either way.

// HourDeltaCodec is the hour checkpoint's codec. Its base is the base
// of the hour's probing: the checkpoint the hour applies to.
var HourDeltaCodec = &snapshot.Codec[*HourDelta]{
	Kind:    snapshot.KindStreamDelta,
	Version: snapshot.VersionStreamDelta,
	Encode:  EncodeHourDelta,
	Decode:  DecodeHourDelta,
	Base:    func(d *HourDelta) string { return d.Pass.Base },
}

// KindStreamLedger frames an encoded decay ledger.
const KindStreamLedger = "stream.Ledger"

// VersionStream versions the ledger encoding.
const VersionStream uint16 = 1

// EncodeHourDelta appends one hour checkpoint to w.
func EncodeHourDelta(w *snapshot.Writer, d *HourDelta) {
	w.Int(d.Hour)
	snapshot.EncodeChurnEvents(w, d.Events)
	snapshot.EncodePassDelta(w, d.Pass)
	w.Int(len(d.DNS))
	prev := uint64(0)
	for _, p := range d.DNS {
		// DNS /24s are sorted ascending; delta-encode them.
		w.Uvarint(uint64(p) - prev)
		prev = uint64(p)
	}
}

// DecodeHourDelta reads an hour checkpoint written by EncodeHourDelta.
func DecodeHourDelta(r *snapshot.Reader) (*HourDelta, error) {
	d := &HourDelta{Hour: r.Int()}
	evs, err := snapshot.DecodeChurnEvents(r)
	if err != nil {
		return nil, err
	}
	d.Events = evs
	pass, err := snapshot.DecodePassDelta(r)
	if err != nil {
		return nil, err
	}
	d.Pass = pass
	// SliceLen bounds the count against the remaining payload, so a
	// forged checkpoint can neither pre-allocate nor append-grow past
	// the bytes it actually carries.
	n := r.SliceLen(1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 0 {
		d.DNS = make([]netx.Slash24, 0, n)
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		prev += r.Uvarint()
		d.DNS = append(d.DNS, netx.Slash24(prev))
	}
	return d, r.Err()
}

// encodeSeries appends one evidence series to w.
func encodeSeries(w *snapshot.Writer, s *Series) {
	w.Int(len(s.B))
	for _, b := range s.B {
		w.Varint(int64(b.Hour))
		w.Varint(int64(b.Count))
	}
}

// ledgerCodec is comparison-only: marshalled, never decoded.
var ledgerCodec = &snapshot.Codec[*Ledger]{Kind: KindStreamLedger, Version: VersionStream, Encode: encodeLedger}

// MarshalLedger frames the full decay ledger in sorted key order, so two
// ledgers marshal to equal bytes iff they hold identical evidence.
func (l *Ledger) MarshalLedger() (data []byte, payloadHash string) {
	return ledgerCodec.Marshal("", l)
}

func encodeLedger(w *snapshot.Writer, l *Ledger) {
	w.Varint(int64(l.TTL))
	domains := sortedKeys(l.Domains)
	w.Int(len(domains))
	for _, d := range domains {
		w.String(d)
		scopes := l.Domains[d]
		keys := make([]netx.Prefix, 0, len(scopes))
		for p := range scopes {
			keys = append(keys, p)
		}
		sortPrefixes(keys)
		w.Int(len(keys))
		for _, p := range keys {
			snapshot.EncodePrefix(w, p)
			ss := scopes[p]
			encodeSeries(w, &ss.Hits)
			pops := sortedKeys(ss.PoPs)
			w.Int(len(pops))
			for _, pop := range pops {
				w.String(pop)
				encodeSeries(w, ss.PoPs[pop])
			}
		}
	}
	dns := make([]netx.Slash24, 0, len(l.DNS))
	for p := range l.DNS {
		dns = append(dns, p)
	}
	sortSlash24s(dns)
	w.Int(len(dns))
	for _, p := range dns {
		w.Uvarint(uint64(p))
		encodeSeries(w, l.DNS[p])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortPrefixes(ps []netx.Prefix) {
	sort.Slice(ps, func(i, j int) bool { return prefixLess(ps[i], ps[j]) })
}

func sortSlash24s(ps []netx.Slash24) {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
}
