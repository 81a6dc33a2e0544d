package stream

import (
	"clientmap/internal/churn"
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

// Codecs for the streaming checkpoints and for the byte-exact ledger
// comparison the determinism suite makes. Both kinds live here, with
// the formats they frame; the hour delta embeds the churn package's
// event list and snapshot's pass delta.

// KindStreamDelta is the artifact kind of one streaming hour's
// checkpoint (churn events + probe delta + DNS observations).
const KindStreamDelta = "stream.HourDelta"

// VersionStreamDelta is the hour-checkpoint encoding version. Version 2:
// the embedded pass delta is snapshot.VersionCampaignDelta 2.
const VersionStreamDelta uint16 = 2

// HourDeltaCodec is the hour checkpoint's codec. Its base is the base
// of the hour's probing: the checkpoint the hour applies to.
var HourDeltaCodec = &snapshot.Codec[*HourDelta]{
	Kind:    KindStreamDelta,
	Version: VersionStreamDelta,
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
	churn.EncodeEvents(w, d.Events)
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
	evs, err := churn.DecodeEvents(r)
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
	w.Int(len(l.Domains))
	for _, d := range snapshot.SortedKeys(l.Domains) {
		w.String(d)
		scopes := l.Domains[d]
		w.Int(len(scopes))
		for _, p := range snapshot.SortedKeysFunc(scopes, netx.Prefix.Compare) {
			snapshot.EncodePrefix(w, p)
			ss := scopes[p]
			encodeSeries(w, &ss.Hits)
			w.Int(len(ss.PoPs))
			for _, pop := range snapshot.SortedKeys(ss.PoPs) {
				w.String(pop)
				encodeSeries(w, ss.PoPs[pop])
			}
		}
	}
	w.Int(len(l.DNS))
	for _, p := range snapshot.SortedKeys(l.DNS) {
		w.Uvarint(uint64(p))
		encodeSeries(w, l.DNS[p])
	}
}
