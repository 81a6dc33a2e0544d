// Package apnic models APNIC Labs' per-AS Internet user population
// estimates ("How big is that network?"), which the paper uses as the
// widely available point of comparison. The methodology is reproduced at
// the mechanism level: a fixed budget of ad impressions samples users
// (with ad-reach bias by network type), per-AS impression counts are
// scaled to country populations, and ASes that draw no impressions simply
// do not appear — which is why APNIC misses most small ASes (64% of the
// ASes Microsoft's CDN sees) while still covering almost all users.
package apnic

import (
	"fmt"

	"clientmap/internal/world"
)

// impressionsPerAS sizes the campaign's ad impression budget to the
// world: ~4 impressions per AS on average. With heavy-tailed user
// populations, most land on large eyeball networks and the long tail of
// small ASes draws none — the mechanism behind APNIC covering ~35% of
// ASes yet nearly all users.
const impressionsPerAS = 4

// adReach is the calibrated per-category probability multiplier that a
// user (or machine) of that network type renders ads. Read-only.
var adReach = map[world.Category]float64{
	world.CategoryISP:        1.0,
	world.CategoryEducation:  0.7,
	world.CategoryEnterprise: 0.45,
	world.CategoryGovernment: 0.5,
	world.CategoryContent:    0.2,
	world.CategoryHosting:    0.04, // bots don't watch ads
}

// Estimates is the published dataset: per-AS user estimates.
type Estimates struct {
	// Users maps ASN → estimated user count.
	Users map[uint32]float64
	// Impressions maps ASN → raw sampled impressions (internal detail,
	// kept for diagnostics).
	Impressions map[uint32]int
	// CountryUsers maps country code → total estimated users.
	CountryUsers map[string]float64
}

// Estimate runs the simulated campaign over the world.
func Estimate(w *world.World) *Estimates {
	impressions := impressionsPerAS * len(w.ASes)

	// Expected impressions per AS ∝ users × reach.
	weights := make([]float64, len(w.ASes))
	var totalWeight float64
	for i, as := range w.ASes {
		weights[i] = as.Users * adReach[as.Category]
		totalWeight += weights[i]
	}

	est := &Estimates{
		Users:        make(map[uint32]float64),
		Impressions:  make(map[uint32]int),
		CountryUsers: make(map[string]float64),
	}
	if totalWeight <= 0 {
		return est
	}

	rng := w.Cfg.Seed.New("apnic/impressions")
	// Per-country scaling: impressions are normalized back to user counts
	// within each country (APNIC anchors to ITU country totals). First
	// sample impressions per AS.
	countryImpr := make(map[string]float64)
	countryTruth := make(map[string]float64)
	for i, as := range w.ASes {
		mean := float64(impressions) * weights[i] / totalWeight
		n := rng.Poisson(mean)
		if n > 0 {
			est.Impressions[as.ASN] = n
			countryImpr[as.Country] += float64(n)
		}
		countryTruth[as.Country] += as.Users
	}
	// Scale each sampled AS's impressions to its country's user total.
	for i, as := range w.ASes {
		n, ok := est.Impressions[as.ASN]
		if !ok {
			continue
		}
		scale := countryTruth[as.Country] / countryImpr[as.Country]
		users := float64(n) * scale
		est.Users[as.ASN] = users
		est.CountryUsers[as.Country] += users
		_ = i
	}
	return est
}

// TotalUsers returns the estimated world user total.
func (e *Estimates) TotalUsers() float64 {
	var t float64
	for _, u := range e.Users {
		t += u
	}
	return t
}

// String summarizes the dataset.
func (e *Estimates) String() string {
	return fmt.Sprintf("apnic: %d ASes, %.0f estimated users", len(e.Users), e.TotalUsers())
}
