package main

import (
	"fmt"
	"sort"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/serve"
)

// A plan is the generated input of the serve leg: a fixed sequence of
// queries, pre-encoded for both transports, each with the answer the
// benchmark's own copy of the artifact gives for it. The same (artifact,
// mix, seed) always yields the same bytes.

const (
	// cacheSlots is the daemon's response-cache capacity per transport
	// (16 shards × 4096 entries).
	cacheSlots = 16 * 4096
	// hotTargets bounds the hot mix's distinct /24s so that its names —
	// two DNS types per target, one HTTP path plus the AS paths — all fit
	// the cache whatever the artifact's size.
	hotTargets = 20000
	// hotQueries and coldQueries are the plan lengths; generators cycle
	// through them. The cold sequence is longer than any cache could
	// hold before a name comes round again.
	hotQueries  = 1 << 17
	coldQueries = 1 << 18

	txtShare = 0.25 // of DNS queries; the rest ask for A
	asShare  = 0.10 // of HTTP queries; the rest ask /v1/ip
)

type mix string

const (
	mixHot  mix = "hot"
	mixCold mix = "cold"
)

// target is one planned /24 question.
type target struct {
	addr   netx.Addr
	txt    bool // DNS asks TXT rather than A
	active bool // what Lookup24 answers for it
}

// plan holds the pre-encoded queries. DNS query i is dns[dnsOff[i]:
// dnsOff[i+1]] (ID zero, patched at send time); HTTP request i likewise.
type plan struct {
	mix     mix
	targets []target

	dns    []byte
	dnsOff []int32

	http       []byte
	httpOff    []int32
	httpActive []bool // expected "active" per HTTP request (AS requests too)

	// firstDNS and firstHTTP list, in plan order, the first query of each
	// distinct DNS (type, name) and HTTP path: one pass over them touches
	// everything the plan can ask.
	firstDNS  []int32
	firstHTTP []int32

	// nameSpace is how many distinct DNS names the mix draws from.
	nameSpace int
}

func (p *plan) dnsQuery(i int) []byte    { return p.dns[p.dnsOff[i]:p.dnsOff[i+1]] }
func (p *plan) httpRequest(i int) []byte { return p.http[p.httpOff[i]:p.httpOff[i+1]] }
func (p *plan) len() int                 { return len(p.targets) }

// announced24s enumerates uniform draws over the /24s the artifact's
// origin table announces.
type announced24s struct {
	prefixes []netx.Prefix
	cum      []int // cumulative /24 count
}

func newAnnounced24s(cm *serve.ClientMap) *announced24s {
	a := &announced24s{}
	total := 0
	for _, o := range cm.Origins {
		n := o.Prefix.NumSlash24s()
		if n == 0 {
			continue
		}
		total += n
		a.prefixes = append(a.prefixes, o.Prefix)
		a.cum = append(a.cum, total)
	}
	return a
}

func (a *announced24s) total() int {
	if len(a.cum) == 0 {
		return 0
	}
	return a.cum[len(a.cum)-1]
}

func (a *announced24s) at(i int) netx.Slash24 {
	j := sort.SearchInts(a.cum, i+1)
	before := 0
	if j > 0 {
		before = a.cum[j-1]
	}
	return a.prefixes[j].FirstSlash24() + netx.Slash24(i-before)
}

// buildPlan draws the query sequence for one mix.
//
// hot: /24s drawn from the artifact's traffic weights, host octet .1,
// restricted to the first hotTargets distinct draws, so the whole plan
// fits the daemon's response cache and nearly every query is a hit.
//
// cold: /24s uniform over the announced space with a uniform host octet,
// so names hardly repeat and nearly every query takes the lookup path.
func buildPlan(cm *serve.ClientMap, ix *serve.Index, m mix, seed randx.Seed) (*plan, error) {
	rng := seed.New("bench/plan/" + string(m))
	p := &plan{mix: m}
	switch m {
	case mixHot:
		var set []netx.Slash24
		seen := make(map[netx.Slash24]struct{})
		p.targets = make([]target, 0, hotQueries)
		for len(p.targets) < hotQueries {
			s24, ok := ix.SampleTraffic(rng.Float64())
			if !ok {
				return nil, fmt.Errorf("artifact carries no traffic weights to draw the hot mix from")
			}
			if _, known := seen[s24]; !known {
				if len(set) < hotTargets {
					seen[s24] = struct{}{}
					set = append(set, s24)
				} else {
					// Working set is full: re-use a target already in it.
					s24 = set[rng.Intn(len(set))]
				}
			}
			p.targets = append(p.targets, target{addr: s24.AddrAt(1), txt: rng.Bool(txtShare)})
		}
		p.nameSpace = 2 * len(set)
	case mixCold:
		ann := newAnnounced24s(cm)
		if ann.total() == 0 {
			return nil, fmt.Errorf("artifact announces no prefixes to draw the cold mix from")
		}
		p.targets = make([]target, 0, coldQueries)
		for len(p.targets) < coldQueries {
			s24 := ann.at(rng.Intn(ann.total()))
			p.targets = append(p.targets, target{addr: s24.AddrAt(byte(rng.Intn(256))), txt: rng.Bool(txtShare)})
		}
		p.nameSpace = 2 * 256 * ann.total()
	default:
		return nil, fmt.Errorf("unknown mix %q", m)
	}

	asns := ix.SortedASNs()
	p.dnsOff = make([]int32, 1, len(p.targets)+1)
	p.httpOff = make([]int32, 1, len(p.targets)+1)
	p.httpActive = make([]bool, len(p.targets))
	var q dnswire.Message
	seenDNS := make(map[uint64]struct{})
	seenHTTP := make(map[string]struct{})
	for i := range p.targets {
		t := &p.targets[i]
		t.active = ix.LookupAddr(t.addr).Active
		key := uint64(t.addr) << 1
		if t.txt {
			key |= 1
		}
		if _, dup := seenDNS[key]; !dup {
			seenDNS[key] = struct{}{}
			p.firstDNS = append(p.firstDNS, int32(i))
		}

		qtype := dnswire.TypeA
		if t.txt {
			qtype = dnswire.TypeTXT
		}
		q.SetQuery(0, serve.FormatReverseName(t.addr, serve.DefaultZone), qtype)
		var err error
		if p.dns, err = q.AppendMarshal(p.dns); err != nil {
			return nil, fmt.Errorf("encoding query for %s: %w", t.addr, err)
		}
		p.dnsOff = append(p.dnsOff, int32(len(p.dns)))

		p.http = append(p.http, "GET "...)
		if len(asns) > 0 && rng.Bool(asShare) {
			asn := asns[rng.Intn(len(asns))]
			_, p.httpActive[i] = ix.LookupAS(asn)
			p.http = fmt.Appendf(p.http, "/v1/as/%d", asn)
		} else {
			p.httpActive[i] = t.active
			p.http = append(p.http, "/v1/ip/"...)
			p.http = t.addr.AppendTo(p.http)
		}
		path := string(p.http[int(p.httpOff[i])+len("GET "):])
		if _, dup := seenHTTP[path]; !dup {
			seenHTTP[path] = struct{}{}
			p.firstHTTP = append(p.firstHTTP, int32(i))
		}
		p.http = append(p.http, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
		p.httpOff = append(p.httpOff, int32(len(p.http)))
	}
	return p, nil
}
