package stream

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"clientmap/internal/netx"
	"clientmap/internal/routeviews"
	"clientmap/internal/serve"
)

// ClientMapOut is one emitted rolling artifact: the map plus its
// deterministic payload hash. The hash is recorded in the hour view (so
// replayed runs must rebuild byte-identical maps) and the map itself is
// written to disk by the live path's exporter.
type ClientMapOut struct {
	Map  *serve.ClientMap
	Hash string
}

// buildMap assembles the rolling serving artifact from the ledger's live
// evidence as of the end of hour h. The origin table is re-derived from
// the live (churned) world each emit, so prefix re-allocations reach the
// served AS attribution as soon as their evidence does.
func (s *State) buildMap(env *Env, h int) *ClientMapOut {
	meta := serve.Meta{
		Seed:    uint64(s.Cfg.Seed),
		Scale:   s.Cfg.Scale,
		Passes:  DefaultTTLHours,
		BuiltAt: env.HourStart(h + 1),
		Source: fmt.Sprintf("stream hour=%d ttl=%dh churn=%s",
			h, DefaultTTLHours, s.Cfg.Churn.Fingerprint()),
	}
	scopes := s.Ledger.ServeScopes(int32(h))
	cm := serve.Assemble(meta, scopes, routeviews.FromWorld(env.World), nil)
	_, hash := serve.Marshal(cm)
	return &ClientMapOut{Map: cm, Hash: hash}
}

// FinalMap rebuilds the rolling artifact as of the last finished hour —
// how a resumed run reproduces the exact map an uninterrupted run
// emitted, without persisting the artifact itself.
func (s *State) FinalMap(env *Env) *ClientMapOut {
	if s.Hour == 0 {
		return nil
	}
	return s.buildMap(env, s.Hour-1)
}

// DNSTick runs one hour of the DNS-logs technique against the live
// world: for every root-visible resolver, a deterministic Poisson draw
// over its aggregate Chromium interception-probe rate decides whether
// the resolver's /24 appeared in this hour's root traces. The result
// depends only on (seed, resolver index, hour window, live world rates),
// so the Chromium-deprecation event silences the channel on the hour it
// fires. Returned /24s are sorted ascending.
func DNSTick(env *Env, cfg Config, h int) []netx.Slash24 {
	rates := env.Model.ResolverRootRates()
	start := env.HourStart(h)
	rng := cfg.Seed.New("stream/dns")
	var key []byte
	var out []netx.Slash24
	seen := make(map[netx.Slash24]bool)
	for ri, rate := range rates {
		if rate <= 0 {
			continue
		}
		r := &env.World.Resolvers[ri]
		key = key[:0]
		key = append(key, "stream/dns/"...)
		key = strconv.AppendInt(key, int64(ri), 10)
		if env.Model.CountInDR(rng, key, rate, r.Coord.Lon, 1, start, time.Hour) > 0 {
			p := r.Addr.Slash24()
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
