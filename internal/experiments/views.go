package experiments

import (
	"context"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/datasets"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/netx"
	"clientmap/internal/routeviews"
	"clientmap/internal/snapshot"
)

func noCtx() context.Context { return context.Background() }

// buildViews derives the five dataset views at both granularities, the
// exact reductions §4 compares:
//
//   - cache probing at prefix level is its *upper bound*: every /24 under
//     a hit scope;
//   - DNS logs at prefix level is the /24s of detected resolver addresses
//     (a resolver-granularity signal, as the paper stresses);
//   - Microsoft clients carries HTTP request volume per /24;
//   - Microsoft resolvers carries client-IP counts per resolver /24;
//   - APNIC exists only at AS granularity.
//
// Every map is folded in sorted key order: the views are a persisted
// pipeline artifact, and float accumulation must not depend on Go's map
// iteration order for the encoded bytes to be reproducible.
func buildViews(camp *cacheprobe.Campaign, logs *dnslogs.Result, base *baselineArtifact, rv *routeviews.Table) *viewsArtifact {
	v := &viewsArtifact{}

	// Prefix views.
	v.PfxCacheProbe = datasets.NewPrefixDataset(NameCacheProbe)
	camp.Upper24s().Range(func(p netx.Slash24) bool {
		v.PfxCacheProbe.Set.Add(p)
		return true
	})

	v.PfxDNSLogs = datasets.NewPrefixDataset(NameDNSLogs)
	for _, addr := range logs.Resolvers() {
		v.PfxDNSLogs.Add(addr.Slash24(), logs.ResolverCounts[addr])
	}

	v.PfxUnion = v.PfxCacheProbe.Union(NameUnion, v.PfxDNSLogs)

	v.PfxMSClients = datasets.NewPrefixDataset(NameMSClients)
	for _, p := range snapshot.SortedKeys(base.CDN.Clients.Volume) {
		v.PfxMSClients.Add(p, float64(base.CDN.Clients.Volume[p]))
	}

	v.PfxMSResolvers = datasets.NewPrefixDataset(NameMSResolvers)
	for _, addr := range snapshot.SortedKeys(base.CDN.Resolvers.ClientIPs) {
		v.PfxMSResolvers.Add(addr.Slash24(), float64(base.CDN.Resolvers.ClientIPs[addr]))
	}

	// AS views.
	v.ASCacheProbe, _ = v.PfxCacheProbe.ToAS(NameCacheProbe, rv)
	v.ASDNSLogs, _ = v.PfxDNSLogs.ToAS(NameDNSLogs, rv)
	v.ASUnion = v.ASCacheProbe.Union(NameUnion, v.ASDNSLogs)
	v.ASMSClients, _ = v.PfxMSClients.ToAS(NameMSClients, rv)
	v.ASMSResolvers, _ = v.PfxMSResolvers.ToAS(NameMSResolvers, rv)

	v.ASAPNIC = datasets.NewASDataset(NameAPNIC)
	for _, asn := range snapshot.SortedKeys(base.APNIC.Users) {
		v.ASAPNIC.Add(asn, base.APNIC.Users[asn])
	}

	return v
}

// asCountry maps every announced ASN to its country code.
func (r *Results) asCountry() map[uint32]string {
	out := make(map[uint32]string, len(r.Sys.World.ASes))
	for _, as := range r.Sys.World.ASes {
		out[as.ASN] = as.Country
	}
	return out
}
