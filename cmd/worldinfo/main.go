// Command worldinfo inspects a synthetic world and exports its public
// datasets in standard formats: the RouteViews-style prefix2as table and a
// geolocation CSV — the files a researcher would feed into their own
// analysis of the measurement results.
//
// Usage:
//
//	worldinfo -scale small -seed 7
//	worldinfo -scale small -pfx2as pfx2as.txt -geo geo.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/report"
	"clientmap/internal/routeviews"
	"clientmap/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worldinfo: ")
	var (
		seed    = flag.Uint64("seed", 1, "world seed")
		scaleN  = flag.String("scale", "tiny", "world scale: tiny|small|medium|large")
		pfx2as  = flag.String("pfx2as", "", "write the prefix2as table to this file")
		geoCSV  = flag.String("geo", "", "write the geolocation database to this CSV file")
		byCat   = flag.Bool("categories", false, "print the per-category AS breakdown")
		country = flag.String("country", "", "print the ASes of one country")
	)
	flag.Parse()

	sc, ok := world.ScaleByName(*scaleN)
	if !ok {
		log.Fatalf("unknown scale %q", *scaleN)
	}
	w, err := world.Generate(world.Config{Seed: randx.Seed(*seed), Scale: sc, Params: world.DefaultParams()})
	if err != nil {
		log.Fatal(err)
	}

	active, resolvers := 0, len(w.Resolvers)
	for i := range w.Prefixes {
		if w.Prefixes[i].HasClients() {
			active++
		}
	}
	fmt.Printf("world(seed=%d, scale=%s): %d ASes, %d announced /24s (%d with clients), %.0f users, %d resolvers\n",
		*seed, *scaleN, len(w.ASes), len(w.Prefixes), active, w.TotalUsers(), resolvers)

	if *byCat {
		counts := map[world.Category]int{}
		users := map[world.Category]float64{}
		for _, as := range w.ASes {
			counts[as.Category]++
			users[as.Category] += as.Users
		}
		t := &report.Table{Header: []string{"Category", "ASes", "Users"}}
		for _, c := range world.Categories {
			t.AddRow(string(c), fmt.Sprintf("%d", counts[c]), fmt.Sprintf("%.0f", users[c]))
		}
		fmt.Println(t)
	}

	if *country != "" {
		type row struct {
			asn   uint32
			users float64
			n24   int
		}
		var rows []row
		for _, as := range w.ASes {
			if as.Country == *country {
				rows = append(rows, row{as.ASN, as.Users, as.NumSlash24s()})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].users > rows[j].users })
		fmt.Printf("%d ASes in %s:\n", len(rows), *country)
		for _, r := range rows {
			fmt.Printf("  AS%-6d %8.0f users  %4d /24s\n", r.asn, r.users, r.n24)
		}
	}

	if *pfx2as != "" {
		f, err := os.Create(*pfx2as)
		if err != nil {
			log.Fatal(err)
		}
		tbl := routeviews.FromWorld(w)
		if err := tbl.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d announcements to %s\n", tbl.Len(), *pfx2as)
	}

	if *geoCSV != "" {
		f, err := os.Create(*geoCSV)
		if err != nil {
			log.Fatal(err)
		}
		t := &report.Table{Header: []string{"prefix", "lat", "lon", "error_km", "country"}}
		w.GeoDB().Range(func(p netx.Slash24, loc geo.Location) bool {
			t.AddRow(p.String(),
				fmt.Sprintf("%.4f", loc.Coord.Lat), fmt.Sprintf("%.4f", loc.Coord.Lon),
				fmt.Sprintf("%.0f", loc.ErrorKm), loc.Country)
			return true
		})
		if err := t.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d geolocation entries to %s\n", len(t.Rows), *geoCSV)
	}
}
