package activity

import (
	"math"
	"sort"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/experiments"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

var cachedRes *experiments.Results

func run(t testing.TB) (*experiments.Results, *Estimator) {
	t.Helper()
	if cachedRes == nil {
		res, err := experiments.Run(experiments.DefaultConfig(randx.Seed(606), world.ScaleTiny))
		if err != nil {
			t.Fatal(err)
		}
		cachedRes = res
	}
	r := cachedRes
	return r, NewEstimator(r.Campaign, r.DNSLogs, r.RV, r.Sys.World.GeoDB())
}

func TestRankingNonEmptyAndSorted(t *testing.T) {
	_, est := run(t)
	ranking := est.Ranking()
	if len(ranking) == 0 {
		t.Fatal("empty ranking")
	}
	for i := 1; i < len(ranking); i++ {
		if ranking[i-1].Activity < ranking[i].Activity {
			t.Fatal("ranking not descending")
		}
	}
	for _, e := range ranking {
		if e.Warmth < 0 || e.Warmth > 1 {
			t.Errorf("%v: warmth %v out of range", e.Prefix, e.Warmth)
		}
		if e.ASN == 0 || e.Country == "" {
			t.Errorf("%v: incomplete group (%d, %q)", e.Prefix, e.ASN, e.Country)
		}
		if e.Activity <= 0 {
			t.Errorf("%v: non-positive activity", e.Prefix)
		}
	}
}

// TestRankingCorrelatesWithGroundTruth is the validation §6 asks for: the
// combined estimate should order prefixes roughly like the (unobservable)
// true activity.
func TestRankingCorrelatesWithGroundTruth(t *testing.T) {
	r, est := run(t)
	ranking := est.Ranking()

	truth := func(p netx.Prefix) (float64, bool) {
		var sum float64
		found := false
		p.Slash24s(func(s netx.Slash24) bool {
			if pi, ok := r.Sys.World.PrefixInfoOf(s); ok && pi.HasClients() {
				sum += float64(pi.Users) * float64(pi.Activity)
				found = true
			}
			return true
		})
		return sum, found
	}
	rho := RankCorrelation(ranking, truth)
	if rho < 0.25 {
		t.Errorf("rank correlation with ground truth = %.3f; want clearly positive", rho)
	}
	t.Logf("rank correlation = %.3f over %d prefixes", rho, len(ranking))
}

func TestDiurnalScores(t *testing.T) {
	r, est := run(t)
	scores := est.HumanLikelihood()
	if len(scores) == 0 {
		t.Fatal("no diurnal scores")
	}
	for p, s := range scores {
		if s < 0 || s > 2.0 {
			t.Errorf("%v: score %v outside the diurnal factor's range", p, s)
		}
	}

	// Eyeball-heavy scopes should, on average, score at least as
	// human-like as hosting scopes: hosting traffic is flat, so its cache
	// entries are warm at off-hours too and hits spread across the clock.
	var eyeSum, eyeN, hostSum, hostN float64
	for p, s := range scores {
		pi, ok := r.Sys.World.PrefixInfoOf(p.FirstSlash24())
		if !ok {
			continue
		}
		as := r.Sys.World.ASes[pi.ASIdx]
		if as.Category == world.CategoryHosting {
			hostSum += s
			hostN++
		} else if as.Category == world.CategoryISP {
			eyeSum += s
			eyeN++
		}
	}
	if eyeN > 5 && hostN > 5 {
		eyeMean, hostMean := eyeSum/eyeN, hostSum/hostN
		t.Logf("mean diurnal score: ISP %.3f (n=%.0f) vs hosting %.3f (n=%.0f)", eyeMean, eyeN, hostMean, hostN)
		if eyeMean < hostMean-0.05 {
			t.Errorf("ISP scopes (%.3f) score below hosting scopes (%.3f)", eyeMean, hostMean)
		}
	}
}

func TestRankCorrelationEdgeCases(t *testing.T) {
	if got := RankCorrelation(nil, func(netx.Prefix) (float64, bool) { return 0, false }); got != 0 {
		t.Errorf("empty input correlation = %v", got)
	}
	// Perfect agreement.
	ests := []PrefixEstimate{
		{Prefix: netx.MustParsePrefix("1.0.0.0/24"), Activity: 1},
		{Prefix: netx.MustParsePrefix("1.0.1.0/24"), Activity: 2},
		{Prefix: netx.MustParsePrefix("1.0.2.0/24"), Activity: 3},
		{Prefix: netx.MustParsePrefix("1.0.3.0/24"), Activity: 4},
	}
	truth := func(p netx.Prefix) (float64, bool) { return float64(p.Addr()), true }
	if got := RankCorrelation(ests, truth); got < 0.999 {
		t.Errorf("perfect agreement correlation = %v", got)
	}
	// Perfect disagreement.
	inv := func(p netx.Prefix) (float64, bool) { return -float64(p.Addr()), true }
	if got := RankCorrelation(ests, inv); got > -0.999 {
		t.Errorf("perfect disagreement correlation = %v", got)
	}
}

func TestDiurnalScoreNoTimes(t *testing.T) {
	_, est := run(t)
	if _, ok := est.DiurnalScore(&cacheprobe.Hit{}); ok {
		t.Error("score produced without hit times")
	}
	h := &cacheprobe.Hit{
		RespScope: netx.MustParsePrefix("250.0.0.0/24"), // nowhere in geoDB
		Times:     []time.Time{time.Now()},
	}
	if _, ok := est.DiurnalScore(h); ok {
		t.Error("score produced without geolocation")
	}
}

// RankCorrelation computes Spearman-style rank correlation between the
// estimates and a ground-truth activity value per prefix: the check that
// the ranking recovers the paper's per-resolver activity order.
func RankCorrelation(estimates []PrefixEstimate, truth func(netx.Prefix) (float64, bool)) float64 {
	type pair struct{ est, truth float64 }
	var pairs []pair
	for _, e := range estimates {
		if v, ok := truth(e.Prefix); ok {
			pairs = append(pairs, pair{e.Activity, v})
		}
	}
	if len(pairs) < 3 {
		return 0
	}
	rank := func(get func(pair) float64) []float64 {
		idx := make([]int, len(pairs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return get(pairs[idx[a]]) < get(pairs[idx[b]]) })
		r := make([]float64, len(pairs))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	ra := rank(func(p pair) float64 { return p.est })
	rb := rank(func(p pair) float64 { return p.truth })
	// Pearson correlation of the ranks.
	n := float64(len(pairs))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}
