package serve

import (
	"fmt"
	"os"

	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefs"
)

// KindClientMap is the snapshot artifact kind of the serving map. The
// codec lives here rather than in internal/snapshot because snapshot is
// imported by this package (the container primitives are generic); the
// kind string namespace is shared.
const KindClientMap = "serve.ClientMap"

// VersionClientMap is the artifact encoding version. Bump whenever the
// encode/decode pair changes shape; stale files then fail with
// snapshot.ErrVersionMismatch instead of decoding garbage.
const VersionClientMap uint16 = 1

// ClientMapCodec is the serving map's codec, the one declaration of its
// kind that Marshal, Unmarshal and statefsck share.
var ClientMapCodec = &snapshot.Codec[*ClientMap]{
	Kind:    KindClientMap,
	Version: VersionClientMap,
	Encode:  EncodeClientMap,
	Decode:  DecodeClientMap,
}

// EncodeClientMap appends cm to w. Every slice is already in canonical
// sorted order (Build and Validate enforce it), so a given map always
// encodes to the same bytes — the property the golden serving corpus and
// the generation hash rely on.
func EncodeClientMap(w *snapshot.Writer, cm *ClientMap) {
	w.Uvarint(cm.Meta.Seed)
	w.String(cm.Meta.Scale)
	w.Int(cm.Meta.Passes)
	w.Time(cm.Meta.BuiltAt)
	w.String(cm.Meta.Source)

	w.Int(len(cm.Scopes))
	for _, e := range cm.Scopes {
		snapshot.EncodePrefix(w, e.Scope)
		w.Int(e.Hits)
		w.Uvarint(e.PassMask)
		w.Int(e.Domains)
		w.Float64(e.Confidence)
		w.Int(len(e.PoPs))
		for _, p := range e.PoPs {
			w.String(p.PoP)
			w.Int(p.Hits)
		}
	}

	w.Int(len(cm.ASes))
	for _, a := range cm.ASes {
		w.Uvarint(uint64(a.ASN))
		w.Int(a.Active24s)
		w.Int(a.Announced24s)
		w.Float64(a.Confidence)
	}

	w.Int(len(cm.Origins))
	prev := uint64(0)
	for _, o := range cm.Origins {
		// Origins are sorted by address; delta-encode the addresses the
		// same way EncodeSet24 does.
		w.Uvarint(uint64(o.Prefix.Addr()) - prev)
		prev = uint64(o.Prefix.Addr())
		w.Uvarint(uint64(o.Prefix.Bits()))
		w.Uvarint(uint64(o.ASN))
	}

	w.Int(len(cm.Traffic))
	prevT := uint64(0)
	for _, b := range cm.Traffic {
		w.Uvarint(uint64(b.Slash24) - prevT)
		prevT = uint64(b.Slash24)
		w.Float64(b.Weight)
	}
}

// DecodeClientMap reads a map written by EncodeClientMap and validates
// its structural invariants.
func DecodeClientMap(r *snapshot.Reader) (*ClientMap, error) {
	cm := &ClientMap{}
	cm.Meta.Seed = r.Uvarint()
	cm.Meta.Scale = r.String()
	cm.Meta.Passes = r.Int()
	cm.Meta.BuiltAt = r.Time()
	cm.Meta.Source = r.String()

	n := r.SliceLen(7)
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Zero-length sections decode to nil so an empty map round-trips to
	// itself (reflect-equal, and re-encodes to identical bytes). SliceLen
	// bounds every count against the remaining payload, so a forged
	// count cannot drive the append loops past the bytes that exist.
	if n > 0 {
		cm.Scopes = make([]ScopeEvidence, 0, clampCap(n))
	}
	for i := 0; i < n; i++ {
		var e ScopeEvidence
		e.Scope = snapshot.DecodePrefix(r)
		e.Hits = r.Int()
		e.PassMask = r.Uvarint()
		e.Domains = r.Int()
		e.Confidence = r.Float64()
		np := r.SliceLen(2)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if np > 0 {
			e.PoPs = make([]PoPEvidence, 0, clampCap(np))
		}
		for j := 0; j < np; j++ {
			e.PoPs = append(e.PoPs, PoPEvidence{PoP: r.String(), Hits: r.Int()})
		}
		cm.Scopes = append(cm.Scopes, e)
	}

	n = r.SliceLen(4)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 0 {
		cm.ASes = make([]ASEvidence, 0, clampCap(n))
	}
	for i := 0; i < n; i++ {
		cm.ASes = append(cm.ASes, ASEvidence{
			ASN:          uint32(r.Uvarint()),
			Active24s:    r.Int(),
			Announced24s: r.Int(),
			Confidence:   r.Float64(),
		})
	}

	n = r.SliceLen(3)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 0 {
		cm.Origins = make([]Origin, 0, clampCap(n))
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		prev += r.Uvarint()
		bits := int(r.Uvarint())
		cm.Origins = append(cm.Origins, Origin{
			Prefix: netx.PrefixFrom(netx.Addr(prev), bits),
			ASN:    uint32(r.Uvarint()),
		})
	}

	n = r.SliceLen(2)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 0 {
		cm.Traffic = make([]TrafficBin, 0, clampCap(n))
	}
	prevT := uint64(0)
	for i := 0; i < n; i++ {
		prevT += r.Uvarint()
		cm.Traffic = append(cm.Traffic, TrafficBin{Slash24: netx.Slash24(prevT), Weight: r.Float64()})
	}

	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return cm, nil
}

// clampCap bounds a decoded length before it becomes an allocation, so a
// corrupt or hostile header cannot demand gigabytes up front. The slices
// still grow to the true element count via append.
func clampCap(n int) int {
	const maxPrealloc = 1 << 16
	if n < 0 {
		return 0
	}
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// Marshal frames cm as snapshot-container bytes and returns them with
// the payload content hash (the artifact's identity, surfaced to clients
// as the "artifact" field of every response).
func Marshal(cm *ClientMap) (data []byte, payloadHash string) {
	return ClientMapCodec.Marshal(cm.Meta.Source, cm)
}

// Unmarshal parses snapshot-container bytes into a validated ClientMap
// and its payload hash.
func Unmarshal(data []byte) (*ClientMap, string, error) {
	h, r, hash, err := snapshot.Open(data)
	if err != nil {
		return nil, "", err
	}
	if err := ClientMapCodec.Check(h); err != nil {
		return nil, "", err
	}
	cm, err := ClientMapCodec.Decode(r)
	if err != nil {
		return nil, "", err
	}
	return cm, hash, nil
}

// WriteFile atomically writes cm to path (statefs.Disk — fsync'd temp
// file + rename, the same discipline the pipeline checkpoints use) and
// returns the payload hash. A concurrent reader (clientmapd's reload
// poller) only ever sees a complete artifact.
func WriteFile(path string, cm *ClientMap) (string, error) {
	return WriteFileTo(nil, path, cm)
}

// WriteFileTo is WriteFile through an explicit state-I/O seam (nil
// means statefs.Disk); the streaming harness routes the rolling
// artifact through the same fault-injecting FS as its checkpoints.
func WriteFileTo(fsys statefs.FS, path string, cm *ClientMap) (string, error) {
	data, hash := Marshal(cm)
	if err := statefs.Or(fsys).WriteAtomic(path, data); err != nil {
		return "", err
	}
	return hash, nil
}

// ReadFile loads and validates a ClientMap snapshot from disk.
func ReadFile(path string) (*ClientMap, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return Unmarshal(data)
}
