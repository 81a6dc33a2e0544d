package experiments

import (
	"clientmap/internal/apnic"
	"clientmap/internal/asdb"
	"clientmap/internal/cdn"
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
	"clientmap/internal/world"
)

// baselineArtifact bundles the comparison-dataset collections that are
// checkpointed as one stage: one day of CDN collections, the APNIC
// estimates, and the ASdb categories.
type baselineArtifact struct {
	CDN   *cdn.Datasets
	APNIC *apnic.Estimates
	ASDB  *asdb.DB
}

// baselinesCodec persists the baselines stage under a composite kind
// only this package writes; statefsck checks it by checksum alone. Its
// three parts are encoded nowhere else, so their encoders live here and
// the cdn, apnic and asdb packages stay free of the snapshot format.
var baselinesCodec = &snapshot.Codec[*baselineArtifact]{
	Kind:    "experiments.Baselines",
	Version: 1,
	Encode: func(w *snapshot.Writer, b *baselineArtifact) {
		encodeCDN(w, b.CDN)
		encodeAPNIC(w, b.APNIC)
		encodeASDB(w, b.ASDB)
	},
	Decode: func(r *snapshot.Reader) (*baselineArtifact, error) {
		b := &baselineArtifact{}
		var err error
		if b.CDN, err = decodeCDN(r); err != nil {
			return nil, err
		}
		if b.APNIC, err = decodeAPNIC(r); err != nil {
			return nil, err
		}
		if b.ASDB, err = decodeASDB(r); err != nil {
			return nil, err
		}
		return b, nil
	},
}

// encodeCDN appends the one-day Microsoft-style collections.
func encodeCDN(w *snapshot.Writer, d *cdn.Datasets) {
	w.Time(d.Day)

	w.Int(len(d.Clients.Volume))
	prev := uint64(0)
	for _, p := range snapshot.SortedKeys(d.Clients.Volume) {
		w.Uvarint(uint64(p) - prev)
		prev = uint64(p)
		w.Varint(d.Clients.Volume[p])
	}
	w.Varint(d.Clients.Total)

	w.Int(len(d.Resolvers.ClientIPs))
	for _, a := range snapshot.SortedKeys(d.Resolvers.ClientIPs) {
		w.Uvarint(uint64(a))
		w.Varint(d.Resolvers.ClientIPs[a])
	}
	w.Varint(d.Resolvers.Total)

	w.Int(len(d.ECS.Queries))
	for _, p := range snapshot.SortedKeysFunc(d.ECS.Queries, netx.Prefix.Compare) {
		snapshot.EncodePrefix(w, p)
		w.Varint(d.ECS.Queries[p])
	}
	w.Varint(d.ECS.Total)
}

func decodeCDN(r *snapshot.Reader) (*cdn.Datasets, error) {
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
		p := snapshot.DecodePrefix(r)
		d.ECS.Queries[p] = r.Varint()
	}
	d.ECS.Total = r.Varint()
	return d, r.Err()
}

// encodeAPNIC appends the simulated APNIC user estimates.
func encodeAPNIC(w *snapshot.Writer, e *apnic.Estimates) {
	w.Int(len(e.Users))
	for _, asn := range snapshot.SortedKeys(e.Users) {
		w.Uvarint(uint64(asn))
		w.Float64(e.Users[asn])
	}
	w.Int(len(e.Impressions))
	for _, asn := range snapshot.SortedKeys(e.Impressions) {
		w.Uvarint(uint64(asn))
		w.Int(e.Impressions[asn])
	}
	w.Int(len(e.CountryUsers))
	for _, c := range snapshot.SortedKeys(e.CountryUsers) {
		w.String(c)
		w.Float64(e.CountryUsers[c])
	}
}

func decodeAPNIC(r *snapshot.Reader) (*apnic.Estimates, error) {
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

// encodeASDB appends the AS classification database in ASN order.
func encodeASDB(w *snapshot.Writer, db *asdb.DB) {
	cats := make(map[uint32]world.Category, db.Len())
	db.Range(func(asn uint32, cat world.Category) bool {
		cats[asn] = cat
		return true
	})
	w.Int(len(cats))
	for _, asn := range snapshot.SortedKeys(cats) {
		w.Uvarint(uint64(asn))
		w.String(string(cats[asn]))
	}
}

func decodeASDB(r *snapshot.Reader) (*asdb.DB, error) {
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
