// Command clientmap runs the full measurement pipeline and answers the
// questions the paper motivates: does this prefix contain Internet
// clients? Which ASes host users? How trustworthy is a geolocation entry?
//
// Usage:
//
//	clientmap -scale small -seed 7 -prefix 1.3.7.0/24 -asn 1234
//	clientmap -scale tiny -report            # print every table and figure
//	clientmap -scale small -coverage         # per-country coverage
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"clientmap"
	"clientmap/internal/cliflags"
)

// options are the command's flags: the campaign flags it shares with
// cmd/experiments plus its own queries.
type options struct {
	*cliflags.Shared
	prefix                     string
	asn                        uint
	report, coverage, headline bool
}

func bind(flags *flag.FlagSet) *options {
	o := &options{Shared: cliflags.Bind(flags, 1, "tiny")}
	flags.StringVar(&o.prefix, "prefix", "", "look up client activity for this CIDR prefix")
	flags.UintVar(&o.asn, "asn", 0, "look up client activity for this AS number")
	flags.BoolVar(&o.report, "report", false, "print the full evaluation report")
	flags.BoolVar(&o.coverage, "coverage", false, "print per-country user coverage")
	flags.BoolVar(&o.headline, "headline", false, "print paper-vs-measured headline statistics")
	flags.StringVar(&o.ArtifactPath, "artifact", "", "write the rolling serving artifact (what clientmapd -reload watches) to this file on every emit hour (stream mode only)")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clientmap: ")
	o := bind(flag.CommandLine)
	flag.Parse()
	if err := o.Check(); err != nil {
		log.Fatal(err)
	}

	cfg := o.Config
	if cfg.StateDir != "" || cfg.DebugAddr != "" {
		cfg.Log = log.Printf
	}
	write := func(path string, data []byte) {
		if err := cliflags.WriteOut(path, data); err != nil {
			log.Fatal(err)
		}
	}

	if cfg.StreamHours > 0 {
		if o.prefix != "" || o.asn != 0 || o.report || o.coverage || o.headline || o.DegradationJSON != "" {
			log.Fatal("-stream is incompatible with the batch-evaluation queries (-prefix, -asn, -report, -coverage, -headline, -degradation-json)")
		}
		run, err := clientmap.RunStream(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(run.ReportText())
		if cfg.ArtifactPath != "" {
			log.Printf("rolling artifact %s (payload %.12s)", cfg.ArtifactPath, run.FinalArtifactHash())
		}
		write(o.MetricsJSON, run.MetricsJSON())
		return
	}
	eval, err := clientmap.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	did := o.DegradationJSON != "" || o.MetricsJSON != ""
	if o.DegradationJSON != "" {
		b, err := eval.DegradationJSON()
		if err != nil {
			log.Fatal(err)
		}
		write(o.DegradationJSON, append(b, '\n'))
	}
	write(o.MetricsJSON, eval.MetricsJSON())
	if o.report {
		fmt.Println(eval.Text())
		did = true
	}
	if o.headline {
		for _, s := range eval.Headline() {
			fmt.Printf("%-55s paper %-24s measured %s\n", s.Name, s.Paper, s.Measured)
		}
		did = true
	}
	if o.prefix != "" {
		act, err := eval.PrefixActive(o.prefix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prefix %s: active=%v cacheProbing=%v dnsLogs=%v", o.prefix, act.Active(), act.CacheProbing, act.DNSLogs)
		if act.ASN != 0 {
			fmt.Printf(" origin=AS%d", act.ASN)
		}
		fmt.Println()
		trusted, reason, err := eval.GeoTrust(o.prefix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("geolocation trust: %v (%s)\n", trusted, reason)
		did = true
	}
	if o.asn != 0 {
		a := eval.ASActive(uint32(o.asn))
		fmt.Printf("AS%d: cacheProbing=%v dnsLogs=%v relVolume=%.3g apnicUsers=%.0f\n",
			a.ASN, a.CacheProbing, a.DNSLogs, a.RelativeVolume, a.APNICUsers)
		did = true
	}
	if o.coverage {
		cov := eval.CountryCoverage()
		countries := make([]string, 0, len(cov))
		for c := range cov {
			countries = append(countries, c)
		}
		sort.Strings(countries)
		for _, c := range countries {
			fmt.Printf("%s %5.1f%%\n", c, cov[c]*100)
		}
		did = true
	}
	if !did {
		cp, dl := eval.ActivePrefixCount()
		fmt.Printf("evaluation complete: %d /24s via cache probing, %d via DNS logs, %d eyeball ASes\n",
			cp, dl, len(eval.EyeballASNs()))
		fmt.Fprintln(os.Stderr, "use -report, -headline, -prefix, -asn or -coverage for details")
	}
}
