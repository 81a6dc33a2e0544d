package dnslogs

import (
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

// ResultCodec is the crawl result's checkpoint codec: the ditl-dnslogs
// stage persists through it and statefsck deep-checks with it. Version
// 2 added the OpenRetries counter; it always reads 0 now, and keeps its
// slot so that version-2 checkpoints still restore.
var ResultCodec = &snapshot.Codec[*Result]{
	Kind:    "dnslogs.Result",
	Version: 2,
	Encode:  encodeResult,
	Decode:  decodeResult,
}

func encodeResult(w *snapshot.Writer, res *Result) {
	w.Int(len(res.ResolverCounts))
	for _, a := range snapshot.SortedKeys(res.ResolverCounts) {
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

func decodeResult(r *snapshot.Reader) (*Result, error) {
	res := &Result{ResolverCounts: make(map[netx.Addr]float64)}
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
