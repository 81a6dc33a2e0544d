// Package world generates and holds the synthetic Internet that every
// dataset and measurement technique in this module observes.
//
// The paper validates its techniques against privileged views of the real
// Internet (Microsoft CDN logs, APNIC estimates). Those views are
// unobtainable, so this package builds a single seeded ground truth —
// countries, ASes with ASdb-style categories, prefix allocations, per-/24
// client populations, recursive resolvers and resolver-choice mixes — and
// every other package derives its dataset from it mechanistically: the CDN
// "sees" client HTTP fetches, APNIC "samples" ad impressions, Google Public
// DNS caches fill from client DNS queries, root servers see Chromium
// interception probes. Cross-dataset overlap then *emerges* from the shared
// ground truth rather than being scripted, which is what makes reproducing
// the paper's comparison tables meaningful.
package world

import (
	"fmt"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// Category classifies an AS, mirroring the ASdb categories the paper uses
// in §4 to characterize ASes its techniques find but APNIC misses.
type Category string

// AS categories.
const (
	CategoryISP        Category = "isp"
	CategoryHosting    Category = "hosting"
	CategoryEducation  Category = "education"
	CategoryEnterprise Category = "enterprise"
	CategoryContent    Category = "content"
	CategoryGovernment Category = "government"
)

// Categories lists all AS categories in deterministic order.
var Categories = []Category{
	CategoryISP, CategoryHosting, CategoryEducation,
	CategoryEnterprise, CategoryContent, CategoryGovernment,
}

// Resolver is one recursive resolver.
type Resolver struct {
	Addr netx.Addr
	// ASIdx indexes World.ASes.
	ASIdx int32
	Coord geo.Coord
	// ForwardsToRoots reports whether this resolver's cache misses reach
	// the root servers directly (and therefore appear in DITL traces).
	// Resolvers behind forwarders do not.
	ForwardsToRoots bool
}

// AS is one autonomous system of the synthetic Internet.
type AS struct {
	ASN      uint32
	Country  string
	Category Category
	Coord    geo.Coord
	// Blocks are the prefixes the AS announces into BGP.
	Blocks []netx.Prefix
	// PrefixLo/PrefixHi delimit this AS's entries in World.Prefixes.
	PrefixLo, PrefixHi int32
	// Users is the AS's total (ground-truth) human Internet users.
	Users float64
	// GoogleDNSShare is the fraction of the AS's client DNS queries that
	// go to Google Public DNS.
	GoogleDNSShare float64
	// Micro marks a long-tail network with a negligible user count.
	// Nearly half of real ASes are such networks; their (usually
	// provider-independent) address space clusters apart from eyeball
	// pools, so coarse ECS scopes rarely cover them.
	Micro bool
	// Resolvers indexes World.Resolvers for resolvers hosted in this AS.
	Resolvers []int32
}

// NumSlash24s returns how many /24s the AS announces.
func (a *AS) NumSlash24s() int {
	n := 0
	for _, b := range a.Blocks {
		n += b.NumSlash24s()
	}
	return n
}

// PrefixInfo is the ground truth for one announced /24.
type PrefixInfo struct {
	P     netx.Slash24
	ASIdx int32
	// Users is the human client population of the /24; zero means the /24
	// is announced but hosts no web clients.
	Users float32
	// Activity scales the /24's query/fetch volume relative to its user
	// count (bots and heavy users push it above 1).
	Activity float32
	// Diurnality is how strongly the /24's traffic follows the human
	// day-night cycle: ~1 for residential eyeballs, near 0 for hosting
	// space where machines run around the clock. The paper's §6 roadmap
	// proposes exactly this signal to separate human users from bots.
	Diurnality float32
	// Coord is the true location.
	Coord geo.Coord
	// ResolverIdx is the in-AS resolver its clients use for the non-Google
	// share of queries, or -1.
	ResolverIdx int32
}

// HasClients reports whether the /24 hosts any web clients.
func (p *PrefixInfo) HasClients() bool { return p.Users > 0 }

// GoogleASN is the ASN of the synthetic Google AS every world contains:
// it announces one /16 that hosts Google Public DNS's resolver egress
// addresses alongside Google's own (corporate/cloud) client space.
const GoogleASN uint32 = 15169

// World is the generated ground truth.
type World struct {
	Cfg       Config
	ASes      []*AS
	Prefixes  []PrefixInfo
	Resolvers []Resolver

	// googleASIdx indexes ASes for the synthetic Google AS.
	googleASIdx int32

	// byPrefix maps a /24 to its index in Prefixes.
	byPrefix map[netx.Slash24]int32
	// announcements maps announced blocks to AS indices (longest prefix
	// match), the ground truth behind the RouteViews dataset.
	announcements netx.Trie[int32]
	geoDB         *geo.DB
}

// PrefixInfoOf returns the ground truth for a /24, if announced.
func (w *World) PrefixInfoOf(p netx.Slash24) (*PrefixInfo, bool) {
	idx, ok := w.byPrefix[p]
	if !ok {
		return nil, false
	}
	return &w.Prefixes[idx], true
}

// Announcements returns the BGP ground truth trie mapping announced blocks
// to indices into ASes.
func (w *World) Announcements() *netx.Trie[int32] { return &w.announcements }

// GeoDB returns the MaxMind-style geolocation database generated for this
// world (with its error model applied — it is *not* the ground truth).
func (w *World) GeoDB() *geo.DB { return w.geoDB }

// PublicSpan returns the /16-aligned blocks covering the allocated public
// space — the universe a whole-address-space scan iterates. (The real
// campaign scans all 15.5M public /24s; the synthetic world's allocator
// packs its space into one contiguous region with unannounced holes.)
func (w *World) PublicSpan() []netx.Prefix {
	if len(w.Prefixes) == 0 {
		return nil
	}
	lo := uint32(w.Prefixes[0].P) &^ 0xFF
	hi := uint32(w.Prefixes[0].P)
	for i := range w.Prefixes {
		p := uint32(w.Prefixes[i].P)
		if p < lo {
			lo = p &^ 0xFF
		}
		if p > hi {
			hi = p
		}
	}
	var out []netx.Prefix
	for b := lo; b <= hi; b += 256 {
		out = append(out, netx.PrefixFrom(netx.Slash24(b).Addr(), 16))
	}
	return out
}

// TotalUsers returns the ground-truth user total.
func (w *World) TotalUsers() float64 {
	var t float64
	for _, a := range w.ASes {
		t += a.Users
	}
	return t
}

// GoogleAS returns the synthetic Google AS.
func (w *World) GoogleAS() *AS { return w.ASes[w.googleASIdx] }

// GoogleEgress returns the address Google Public DNS's PoP at catalog
// index popIdx uses when querying authoritatives and roots. Each PoP gets
// one /24 inside Google's announced /16.
func (w *World) GoogleEgress(popIdx int) netx.Addr {
	block := w.GoogleAS().Blocks[0]
	return netx.Slash24(uint32(block.FirstSlash24()) + uint32(popIdx)).AddrAt(53)
}

// Scale presets size the world. Absolute counts are far below the real
// Internet's (15.5M /24s); experiments compare shapes and ratios, which are
// scale-free.
type Scale struct {
	Name string
	// NumASes is the target AS count.
	NumASes int
	// MeanBlocks24 is the mean number of /24s per AS (heavy-tailed around
	// this mean).
	MeanBlocks24 int
	// UsersPerSlash24 scales ground-truth population so that per-/24 user
	// counts stay realistic at small scales.
	UsersPerSlash24 float64
	// MaxCountries limits the world to the N largest countries (0 = all).
	// Small worlds use fewer countries so each country's address region
	// stays densely allocated, as real RIR space is.
	MaxCountries int
}

// Predefined scales.
var (
	ScaleTiny   = Scale{Name: "tiny", NumASes: 120, MeanBlocks24: 12, UsersPerSlash24: 600, MaxCountries: 12}
	ScaleSmall  = Scale{Name: "small", NumASes: 700, MeanBlocks24: 18, UsersPerSlash24: 600, MaxCountries: 30}
	ScaleMedium = Scale{Name: "medium", NumASes: 3000, MeanBlocks24: 26, UsersPerSlash24: 600}
	ScaleLarge  = Scale{Name: "large", NumASes: 9000, MeanBlocks24: 30, UsersPerSlash24: 600}
)

// ScaleByName returns the predefined scale called name ("tiny", "small",
// "medium" or "large"); ok is false for any other name.
func ScaleByName(name string) (Scale, bool) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium, ScaleLarge} {
		if s.Name == name {
			return s, true
		}
	}
	return Scale{}, false
}

// Params are the behavioural knobs of the generated Internet. Defaults are
// calibrated so the measurement pipelines land in the qualitative bands the
// paper reports (see the calibration tests in internal/experiments).
type Params struct {
	// GoogleDNSShareMean is the global mean share of client queries sent
	// to Google Public DNS (the paper cites 30-35% of queries to Azure
	// authoritative DNS coming from Google Public DNS).
	GoogleDNSShareMean float64
	// GoogleDNSShareByRegion overrides the mean share per region.
	GoogleDNSShareByRegion map[string]float64
	// ResolverProb is, per category, the probability an AS hosts its own
	// recursive resolver.
	ResolverProb map[Category]float64
	// RootVisibleProb is the probability an AS resolver forwards directly
	// to the roots (vs sitting behind a forwarder), making it visible to
	// the DNS-logs technique.
	RootVisibleProb float64
	// ChromiumShare is the fraction of browser sessions on Chromium-based
	// browsers.
	ChromiumShare float64
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		GoogleDNSShareMean: 0.32,
		GoogleDNSShareByRegion: map[string]float64{
			geo.RegionSouthAmerica: 0.16, // Figure 3: SA coverage is worst
			geo.RegionAfrica:       0.24,
		},
		ResolverProb: map[Category]float64{
			CategoryISP:        0.95,
			CategoryHosting:    0.65,
			CategoryEducation:  0.88,
			CategoryEnterprise: 0.60,
			CategoryContent:    0.70,
			CategoryGovernment: 0.70,
		},
		RootVisibleProb: 0.80,
		ChromiumShare:   0.70,
	}
}

// Config configures world generation.
type Config struct {
	Seed   randx.Seed
	Scale  Scale
	Params Params
}

func (c Config) validate() error {
	if c.Scale.NumASes <= 0 || c.Scale.MeanBlocks24 <= 0 {
		return fmt.Errorf("world: invalid scale %+v", c.Scale)
	}
	return nil
}
