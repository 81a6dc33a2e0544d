// Package cdn derives the three privileged Microsoft datasets the paper
// validates against (§4) from the synthetic workload:
//
//   - Microsoft clients: CDN request volume aggregated by client /24 — the
//     broadest view of Internet activity, capturing 97% of ASes;
//   - Microsoft resolvers: count of client IPs observed using each
//     recursive resolver (joining the CDN's DNS and HTTP views); and
//   - cloud ECS prefixes: the ECS prefixes observed in queries at the
//     Traffic Manager authoritative for the Microsoft validation domain.
//
// Each is a one-day collection, the paper's granularity.
package cdn

import (
	"math"
	"sort"
	"time"

	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

// Clients is the "Microsoft clients" dataset: request volume per /24.
type Clients struct {
	Volume map[netx.Slash24]int64
	Total  int64
}

// Resolvers is the "Microsoft resolvers" dataset: distinct client IP count
// per recursive resolver address (Google Public DNS egress addresses
// appear here too, which is why Google's AS carries ~20% of this dataset's
// weight in appendix B.3).
type Resolvers struct {
	ClientIPs map[netx.Addr]int64
	Total     int64
}

// ECSPrefixes is the "cloud ECS prefixes" dataset: ECS source prefixes
// seen at the Traffic Manager authoritative with their query counts.
type ECSPrefixes struct {
	Queries map[netx.Prefix]int64
	Total   int64
}

// Datasets bundles one day of all three collections.
type Datasets struct {
	Clients   *Clients
	Resolvers *Resolvers
	ECS       *ECSPrefixes
	Day       time.Time
}

// Collect runs the one-day collection against the workload model.
func Collect(model *traffic.Model, day time.Time) *Datasets {
	w := model.W
	clients := &Clients{Volume: make(map[netx.Slash24]int64)}
	resolvers := &Resolvers{ClientIPs: make(map[netx.Addr]int64)}
	ecs := &ECSPrefixes{Queries: make(map[netx.Prefix]int64)}

	msft := microsoftDomain()

	// One stream reseeded per sample and keys byte-built in scratch: the
	// loop draws two day-long samples per client /24, and CountInDR draws
	// exactly what CountInD draws for the equal "cdn/http/<p>" and
	// "cdn/ecs/<p>" string keys.
	rng := w.Cfg.Seed.New("cdn/collect-scratch")
	var kb [48]byte
	key := func(kind string, p netx.Slash24) []byte {
		return p.AppendTo(append(kb[:0], kind...))
	}

	for i := range w.Prefixes {
		pi := &w.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		as := w.ASes[pi.ASIdx]

		// HTTP request volume over the day.
		reqs := model.CountInDR(rng, key("cdn/http/", pi.P), model.HTTPRate(pi), pi.Coord.Lon, float64(pi.Diurnality), day, 24*time.Hour)
		if reqs > 0 {
			clients.Volume[pi.P] += int64(reqs)
			clients.Total += int64(reqs)
		}

		// Resolver join: the /24's observed client IPs split between its
		// ISP resolver and Google Public DNS by the AS's Google share.
		if reqs > 0 {
			ips := observedClientIPs(pi)
			googleIPs := int64(math.Round(float64(ips) * as.GoogleDNSShare))
			ispIPs := ips - googleIPs
			if pi.ResolverIdx >= 0 && ispIPs > 0 {
				addr := w.Resolvers[pi.ResolverIdx].Addr
				resolvers.ClientIPs[addr] += ispIPs
				resolvers.Total += ispIPs
			}
			if googleIPs > 0 {
				pop := model.Router.PoPForClient(pi.P, pi.Coord)
				resolvers.ClientIPs[w.GoogleEgress(pop)] += googleIPs
				resolvers.Total += googleIPs
			}
		}

		// Traffic Manager ECS view: Google forwards the client /24 as ECS
		// when resolving the Microsoft domain. (Other large ECS-capable
		// publics exist but Google dominates; the paper's DNS-side view.)
		gq := model.CountInDR(rng, key("cdn/ecs/", pi.P), model.GoogleDNSRate(pi, msft), pi.Coord.Lon, float64(pi.Diurnality), day, 24*time.Hour)
		if gq > 0 {
			p := pi.P.Prefix()
			ecs.Queries[p] += int64(gq)
			ecs.Total += int64(gq)
		}
	}
	return &Datasets{Clients: clients, Resolvers: resolvers, ECS: ecs, Day: day}
}

// observedClientIPs estimates how many distinct addresses of a /24 the CDN
// sees in a day: bounded by the address space and shaped by NAT (small
// user counts still surface at least one address).
func observedClientIPs(pi *world.PrefixInfo) int64 {
	n := int64(math.Round(float64(pi.Users) * 1.1))
	if n < 1 {
		n = 1
	}
	if n > 254 {
		n = 254
	}
	return n
}

func microsoftDomain() domains.Domain {
	for _, d := range domains.Catalog() {
		if d.Microsoft {
			return d
		}
	}
	panic("cdn: no Microsoft domain in catalog")
}

// Slash24s returns the dataset's prefixes as a set.
func (c *Clients) Slash24s() *netx.Set24 {
	s := &netx.Set24{}
	for p := range c.Volume {
		s.Add(p)
	}
	return s
}

// VolumeOfSet sums the request volume of the dataset's prefixes that are
// members of set — the "our prefixes cover 95.2% of Microsoft clients
// volume" computation.
func (c *Clients) VolumeOfSet(set *netx.Set24) int64 {
	var total int64
	for p, v := range c.Volume {
		if set.Contains(p) {
			total += v
		}
	}
	return total
}

// TopResolvers returns resolver addresses by descending client count.
func (r *Resolvers) TopResolvers(n int) []netx.Addr {
	type kv struct {
		addr  netx.Addr
		count int64
	}
	all := make([]kv, 0, len(r.ClientIPs))
	for a, c := range r.ClientIPs {
		all = append(all, kv{a, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].addr < all[j].addr
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]netx.Addr, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].addr
	}
	return out
}

// ECSSlash24s expands the ECS prefixes to their /24s as a set.
func (e *ECSPrefixes) ECSSlash24s() *netx.Set24 {
	s := &netx.Set24{}
	for p := range e.Queries {
		s.AddPrefix(p)
	}
	return s
}
