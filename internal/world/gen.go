package world

import (
	"math"
	"sort"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// categoryShare is the sampling distribution of AS categories, shaped after
// ASdb's breakdown in the paper's §4 (ISPs dominate, then hosting/cloud,
// enterprises, schools).
var categoryShare = map[Category]float64{
	CategoryISP:        0.38,
	CategoryHosting:    0.18,
	CategoryEnterprise: 0.22,
	CategoryEducation:  0.07,
	CategoryContent:    0.09,
	CategoryGovernment: 0.06,
}

// sizeMult scales how much address space a category announces.
var sizeMult = map[Category]float64{
	CategoryISP:        3.0,
	CategoryHosting:    1.6,
	CategoryEnterprise: 0.35,
	CategoryEducation:  0.7,
	CategoryContent:    1.0,
	CategoryGovernment: 0.4,
}

// userMult scales how many of a country's users a category's ASes absorb.
var userMult = map[Category]float64{
	CategoryISP:        1.0,
	CategoryHosting:    0.01,
	CategoryEnterprise: 0.05,
	CategoryEducation:  0.15,
	CategoryContent:    0.02,
	CategoryGovernment: 0.05,
}

// Generate builds a world from cfg. Generation is deterministic in
// cfg.Seed and roughly O(total /24s).
func Generate(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Params.ResolverProb == nil {
		cfg.Params = DefaultParams()
	}
	w := &World{
		Cfg:      cfg,
		byPrefix: make(map[netx.Slash24]int32),
	}
	g := &generator{w: w, cfg: cfg}
	g.run()
	return w, nil
}

type generator struct {
	w   *World
	cfg Config
	// cursor is the next unallocated /24 index; allocation starts at
	// 1.0.0.0 and leaves gaps to model unrouted public space.
	cursor uint32
}

func (g *generator) run() {
	g.cursor = uint32(netx.MustParseAddr("1.0.0.0").Slash24())
	g.generateGoogleAS()
	g.generateASes()
	g.assignUsers()
	g.placeResolvers()
	g.buildGeoDB()
}

// countries returns the catalog subset this world uses: the full catalog,
// or the MaxCountries largest (the catalog is ordered by users).
func (g *generator) countries() []geo.Country {
	if n := g.cfg.Scale.MaxCountries; n > 0 && n < len(geo.Countries) {
		return geo.Countries[:n]
	}
	return geo.Countries
}

// asCountByCountry splits the target AS count across countries in
// proportion to users^0.75 (big countries have many ASes, but sublinearly).
func (g *generator) asCountByCountry() map[string]int {
	cs := g.countries()
	weights := make([]float64, len(cs))
	var total float64
	for i, c := range cs {
		weights[i] = math.Pow(c.UsersM, 0.75)
		total += weights[i]
	}
	out := make(map[string]int, len(cs))
	for i, c := range cs {
		n := int(math.Round(weights[i] / total * float64(g.cfg.Scale.NumASes)))
		if n < 1 {
			n = 1
		}
		out[c.Code] = n
	}
	return out
}

func (g *generator) sampleCategory(rng *randx.Stream) Category {
	weights := make([]float64, len(Categories))
	for i, c := range Categories {
		weights[i] = categoryShare[c]
	}
	return Categories[rng.WeightedChoice(weights)]
}

// blockSizes carves total24s /24-equivalents into announced blocks with a
// realistic mix of prefix lengths.
func (g *generator) blockSizes(rng *randx.Stream, total24 int) []int {
	var out []int
	for total24 > 0 {
		var bits int
		switch {
		case total24 >= 256 && rng.Bool(0.06):
			bits = 16
		case total24 >= 64 && rng.Bool(0.12):
			bits = 18
		case total24 >= 16 && rng.Bool(0.25):
			bits = 20
		case total24 >= 4 && rng.Bool(0.4):
			bits = 22
		default:
			bits = 24
		}
		n := 1 << (24 - uint(bits))
		out = append(out, n)
		total24 -= n
	}
	return out
}

// allocBlock reserves n contiguous /24s (n a power of two) aligned to its
// size and returns the block prefix. Alignment gaps plus explicit random
// gaps leave unannounced holes in the public space.
func (g *generator) allocBlock(rng *randx.Stream, n int) netx.Prefix {
	// Align to the block size.
	mask := uint32(n - 1)
	if g.cursor&mask != 0 {
		g.cursor = (g.cursor | mask) + 1
	}
	p := netx.Slash24(g.cursor)
	g.cursor += uint32(n)
	// Random inter-block gap: some public space stays unannounced, as in
	// the real Internet (~12M of 15.5M public /24s are routed).
	if rng.Bool(0.2) {
		g.cursor += uint32(rng.Intn(n/2 + 2))
	}
	bits := 24
	for m := n; m > 1; m >>= 1 {
		bits--
	}
	return netx.PrefixFrom(p.Addr(), bits)
}

// generateGoogleAS allocates the world's first /16 to the synthetic
// Google AS (content network, US): its space carries the Public DNS
// egress /24s and some client activity of its own, so resolver-based
// datasets attribute weight to an AS the techniques can also detect.
func (g *generator) generateGoogleAS() {
	rng := g.cfg.Seed.New("world/google")
	us, _ := geo.CountryByCode("US")
	as := &AS{
		ASN:      GoogleASN,
		Country:  "US",
		Category: CategoryContent,
		Coord:    geo.Jitter(rng, us.Center, 400),
	}
	block := g.allocBlock(rng, 256)
	as.Blocks = []netx.Prefix{block}
	as.PrefixLo = 0
	g.w.announcements.Insert(block, 0)
	block.Slash24s(func(s netx.Slash24) bool {
		g.w.byPrefix[s] = int32(len(g.w.Prefixes))
		g.w.Prefixes = append(g.w.Prefixes, PrefixInfo{
			P:           s,
			ASIdx:       0,
			Coord:       geo.Jitter(rng, as.Coord, 500),
			ResolverIdx: -1,
		})
		return true
	})
	as.PrefixHi = int32(len(g.w.Prefixes))
	as.GoogleDNSShare = 0.9 // Google's own clients use Google DNS
	g.w.ASes = append(g.w.ASes, as)
	g.w.googleASIdx = 0
}

func (g *generator) generateASes() {
	counts := g.asCountByCountry()
	rng := g.cfg.Seed.New("world/ases")
	asn := uint32(100)
	for _, country := range g.countries() {
		// Allocations cluster regionally, as RIR delegations do: each
		// country starts at a /16 boundary so no ECS scope (at most /16)
		// straddles two countries. Within a country, eyeball networks are
		// allocated first and the long tail of micro networks afterwards
		// in their own /16-aligned region — mirroring how PI space sits
		// apart from eyeball pools, which is why coarse ECS scopes warmed
		// by eyeball traffic rarely cover micro ASes.
		n := counts[country.Code]
		micro := make([]bool, n)
		for i := range micro {
			micro[i] = rng.Bool(0.45)
		}
		for _, phase := range [2]bool{false, true} {
			g.cursor = (g.cursor + 0xFF) &^ 0xFF
			for i := 0; i < n; i++ {
				if micro[i] != phase {
					continue
				}
				asn += uint32(1 + rng.Intn(5))
				if asn == GoogleASN {
					asn++
				}
				g.generateAS(rng, country, asn, micro[i])
			}
		}
	}
}

// generateAS creates one AS and allocates its address space at the cursor.
func (g *generator) generateAS(rng *randx.Stream, country geo.Country, asn uint32, micro bool) {
	cat := g.sampleCategory(rng)
	as := &AS{
		ASN:      asn,
		Country:  country.Code,
		Category: cat,
		Micro:    micro,
		Coord:    geo.Jitter(rng, country.Center, country.SpreadKm),
	}
	// Heavy-tailed announced size; micro networks announce a few /24s.
	mean := float64(g.cfg.Scale.MeanBlocks24) * sizeMult[cat]
	total24 := int(rng.Pareto(mean*0.35, 1.25))
	if micro {
		total24 = 1 + rng.Intn(4)
	}
	if total24 < 1 {
		total24 = 1
	}
	if lim := g.cfg.Scale.MeanBlocks24 * 240; total24 > lim {
		total24 = lim // cap the tail so one AS cannot swallow the space
	}
	as.PrefixLo = int32(len(g.w.Prefixes))
	for _, sz := range g.blockSizes(rng, total24) {
		block := g.allocBlock(rng, sz)
		as.Blocks = append(as.Blocks, block)
		asIdx := int32(len(g.w.ASes))
		g.w.announcements.Insert(block, asIdx)
		block.Slash24s(func(s netx.Slash24) bool {
			g.w.byPrefix[s] = int32(len(g.w.Prefixes))
			g.w.Prefixes = append(g.w.Prefixes, PrefixInfo{
				P:           s,
				ASIdx:       asIdx,
				Coord:       geo.Jitter(rng, as.Coord, 60),
				ResolverIdx: -1,
			})
			return true
		})
	}
	as.PrefixHi = int32(len(g.w.Prefixes))
	// Google Public DNS share: regional mean with per-AS jitter.
	mean = g.cfg.Params.GoogleDNSShareMean
	if v, ok := g.cfg.Params.GoogleDNSShareByRegion[country.Region]; ok {
		mean = v
	}
	share := mean * rng.LogNormal(0, 0.45)
	if share < 0.02 {
		share = 0.02
	}
	if share > 0.9 {
		share = 0.9
	}
	as.GoogleDNSShare = share
	g.w.ASes = append(g.w.ASes, as)
}

// assignUsers distributes ground-truth users: world total scales with the
// announced /24 count, split to countries by the catalog, to ASes by a
// heavy-tailed weight, and to a per-AS subset of active /24s.
func (g *generator) assignUsers() {
	rng := g.cfg.Seed.New("world/users")
	worldUsers := float64(len(g.w.Prefixes)) * g.cfg.Scale.UsersPerSlash24
	var totalM float64
	for _, c := range g.countries() {
		totalM += c.UsersM
	}

	// Group AS indices by country.
	byCountry := make(map[string][]int32)
	for i, as := range g.w.ASes {
		byCountry[as.Country] = append(byCountry[as.Country], int32(i))
	}

	for _, country := range g.countries() {
		idxs := byCountry[country.Code]
		if len(idxs) == 0 {
			continue
		}
		countryUsers := worldUsers * country.UsersM / totalM
		weights := make([]float64, len(idxs))
		var wsum float64
		for j, idx := range idxs {
			as := g.w.ASes[idx]
			// Heavy-tailed AS popularity × category eyeball factor ×
			// announced size. Nearly half of all real ASes are "micro"
			// networks with a negligible user count — the long tail APNIC
			// never samples and the techniques partially miss.
			weights[j] = rng.Pareto(1, 1.1) * userMult[as.Category] *
				math.Sqrt(float64(as.NumSlash24s()))
			if as.Micro {
				weights[j] *= 0.00012
				// Micro networks stay micro: the Pareto tail must not
				// promote one to an eyeball population.
				if weights[j] > 0.004 {
					weights[j] = 0.004
				}
			}
			wsum += weights[j]
		}
		for j, idx := range idxs {
			as := g.w.ASes[idx]
			as.Users = countryUsers * weights[j] / wsum
			g.populatePrefixes(rng, as)
		}
	}
}

// populatePrefixes picks which of an AS's /24s host clients and spreads the
// AS's users across them. The active fraction is drawn from a wide mixture
// so that Figure 4's spread (some ASes almost empty, some full) emerges.
func (g *generator) populatePrefixes(rng *randx.Stream, as *AS) {
	n := int(as.PrefixHi - as.PrefixLo)
	if n == 0 {
		return
	}
	var frac float64
	switch {
	case rng.Bool(0.18):
		frac = 0.05 + rng.Float64()*0.3 // sparse AS
	case rng.Bool(0.5):
		frac = 0.45 + rng.Float64()*0.45 // middling
	default:
		frac = 0.9 + rng.Float64()*0.1 // saturated
	}
	if as.Category == CategoryHosting {
		frac *= 0.6
	}
	active := int(math.Round(frac * float64(n)))
	// Micro networks cannot populate many prefixes: keep at least ~0.2
	// users per active /24 so the per-prefix activity floor stays honest.
	if lim := int(as.Users / 0.1); active > lim {
		active = lim
	}
	if active < 1 {
		active = 1
	}
	if active > n {
		active = n
	}
	perm := rng.Perm(n)
	chosen := perm[:active]
	sort.Ints(chosen)

	weights := make([]float64, active)
	var wsum float64
	for i := range weights {
		weights[i] = rng.LogNormal(0, 0.7)
		wsum += weights[i]
	}
	for i, off := range chosen {
		pi := &g.w.Prefixes[as.PrefixLo+int32(off)]
		pi.Users = float32(as.Users * weights[i] / wsum)
		if pi.Users < 0.02 {
			pi.Users = 0.02 // an "active" prefix has at least a sliver of activity
		}
		act := rng.LogNormal(0, 0.5)
		diurn := 0.75 + rng.Float64()*0.25
		if as.Category == CategoryHosting {
			// Hosting /24s have few humans but busy machine clients that
			// run around the clock.
			act *= 4
			diurn = 0.05 + rng.Float64()*0.2
		}
		pi.Activity = float32(act)
		pi.Diurnality = float32(diurn)
	}
}

// placeResolvers creates recursive resolvers per AS and wires each active
// /24 to the resolver its clients use for the non-Google query share.
func (g *generator) placeResolvers() {
	rng := g.cfg.Seed.New("world/resolvers")
	params := g.cfg.Params

	// Country-level fallback resolvers (an upstream ISP's) for ASes
	// without their own.
	fallback := make(map[string]int32)

	for i, as := range g.w.ASes {
		prob := params.ResolverProb[as.Category]
		if !rng.Bool(prob) {
			continue
		}
		count := 1
		if as.Users > 0 {
			// Large eyeball networks run several resolvers, so at least
			// one is almost always root-visible.
			count += rng.Poisson(math.Min(as.Users/5e4, 4))
		}
		// Resolvers usually live in the AS's client-populated ranges (the
		// CDN sees their /24s active, which is why the paper finds 95.5%
		// of DNS-logs prefixes among Microsoft clients); a minority sit in
		// infrastructure-only space.
		var active []netx.Slash24
		for j := as.PrefixLo; j < as.PrefixHi; j++ {
			if g.w.Prefixes[j].HasClients() {
				active = append(active, g.w.Prefixes[j].P)
			}
		}
		for r := 0; r < count; r++ {
			if len(as.Blocks) == 0 {
				break
			}
			var home netx.Slash24
			if len(active) > 0 && rng.Bool(0.9) {
				home = active[rng.Intn(len(active))]
			} else {
				block := as.Blocks[rng.Intn(len(as.Blocks))]
				home = netx.Slash24(uint32(block.FirstSlash24()) + uint32(rng.Intn(block.NumSlash24s())))
			}
			addr := home.AddrAt(byte(53 + r))
			ridx := int32(len(g.w.Resolvers))
			g.w.Resolvers = append(g.w.Resolvers, Resolver{
				Addr:            addr,
				ASIdx:           int32(i),
				Coord:           as.Coord,
				ForwardsToRoots: rng.Bool(params.RootVisibleProb),
			})
			as.Resolvers = append(as.Resolvers, ridx)
		}
		if _, ok := fallback[as.Country]; !ok && as.Category == CategoryISP && len(as.Resolvers) > 0 {
			fallback[as.Country] = as.Resolvers[0]
		}
	}

	// Wire prefixes to resolvers.
	for i := range g.w.Prefixes {
		pi := &g.w.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		as := g.w.ASes[pi.ASIdx]
		switch {
		case len(as.Resolvers) > 0:
			pi.ResolverIdx = as.Resolvers[rng.Intn(len(as.Resolvers))]
		default:
			if fb, ok := fallback[as.Country]; ok {
				pi.ResolverIdx = fb
			}
		}
	}
}

// buildGeoDB derives the MaxMind-like database: true locations blurred by a
// sampled error radius, with hosting space occasionally mislocated — the
// paper leans on MaxMind being "accurate enough for the user prefixes of
// interest" while being known-bad for infrastructure.
func (g *generator) buildGeoDB() {
	rng := g.cfg.Seed.New("world/geodb")
	db := geo.NewDB()
	for i := range g.w.Prefixes {
		pi := &g.w.Prefixes[i]
		as := g.w.ASes[pi.ASIdx]
		var errKm float64
		switch {
		case rng.Bool(0.78):
			errKm = 5 + rng.Float64()*45
		case rng.Bool(0.75):
			errKm = 50 + rng.Float64()*250
		default:
			errKm = 300 + rng.Float64()*700
		}
		coord := geo.Jitter(rng, pi.Coord, errKm*0.6)
		country := as.Country
		if as.Category == CategoryHosting && rng.Bool(0.08) {
			// Mislocated infrastructure: report a random other country.
			other := geo.Countries[rng.Intn(len(geo.Countries))]
			coord = geo.Jitter(rng, other.Center, other.SpreadKm)
			country = other.Code
			errKm = 500 + rng.Float64()*500
		}
		db.Set(pi.P, geo.Location{Coord: coord, ErrorKm: errKm, Country: country})
	}
	g.w.geoDB = db
}
