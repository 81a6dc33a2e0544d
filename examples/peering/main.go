// Peering analysis: reproduces the paper's framing example (§1) — a 2015
// study found Google peered directly with 41% of networks overall but with
// 61% of networks hosting end users, so conclusions about "how direct are
// cloud paths" flip depending on whether one weights by eyeballs.
//
// This example builds a synthetic cloud provider's peering set (it peers
// with the largest networks, as clouds do) and contrasts the two ways of
// counting: across all ASes versus across eyeball ASes identified by the
// measurement techniques.
//
//	go run ./examples/peering
package main

import (
	"fmt"
	"log"
	"sort"

	"clientmap"
)

func main() {
	eval, err := clientmap.Run(clientmap.Config{Seed: 42, Scale: clientmap.ScaleSmall})
	if err != nil {
		log.Fatal(err)
	}

	// Every AS seen by any method, and the confidently-eyeball subset:
	// networks where BOTH techniques saw client activity (web clients via
	// cache probing and browser startups via DNS logs).
	eyeballSet := make(map[uint32]bool)
	for _, asn := range eval.EyeballASNs() {
		a := eval.ASActive(asn)
		if a.CacheProbing && a.DNSLogs {
			eyeballSet[asn] = true
		}
	}
	// The full AS population: take everything the broadest dataset saw.
	all := eval.MicrosoftClientASNs()

	// The cloud peers with networks where peering pays off: the busiest
	// eyeball networks (by DNS-logs relative volume) and a slice of the
	// rest (IXP happenstance).
	rel := make(map[uint32]float64, len(all))
	for _, asn := range all {
		rel[asn] = eval.ASActive(asn).RelativeVolume
	}
	sorted := append([]uint32(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return rel[sorted[i]] > rel[sorted[j]] })

	peered := make(map[uint32]bool)
	for i, asn := range sorted {
		if i < len(sorted)/4 { // top quarter by activity
			peered[asn] = true
		} else if i%7 == 0 { // sparse tail peering
			peered[asn] = true
		}
	}

	count := func(asns []uint32) (p, n int) {
		for _, asn := range asns {
			n++
			if peered[asn] {
				p++
			}
		}
		return p, n
	}

	pAll, nAll := count(all)
	var eyeballsInAll []uint32
	for _, asn := range all {
		if eyeballSet[asn] {
			eyeballsInAll = append(eyeballsInAll, asn)
		}
	}
	pEye, nEye := count(eyeballsInAll)

	fmt.Printf("cloud peers directly with %d of %d networks overall: %.0f%%\n",
		pAll, nAll, 100*float64(pAll)/float64(nAll))
	fmt.Printf("among networks hosting end users:       %d of %d: %.0f%%\n",
		pEye, nEye, 100*float64(pEye)/float64(nEye))
	fmt.Println("\nthe same peering fabric looks far more complete when weighted by")
	fmt.Println("eyeball networks — the paper's argument for knowing where users are")
	fmt.Println("(the 2015 study measured 41% overall vs 61% among user networks)")
}
