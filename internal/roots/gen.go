package roots

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/traffic"
)

// GenConfig configures trace generation.
type GenConfig struct {
	// Start and Duration bound the collection window (DITL collects two
	// days).
	Start    time.Time
	Duration time.Duration
	// PerSourceHourCap bounds how many records one source contributes per
	// hour; beyond it, records are emitted in sampled form with
	// proportionally larger weights. Zero means 50.
	PerSourceHourCap int
	// ChromiumScale scales the Chromium probe volume. 1 (the default)
	// models the 2020 DITL era; ~0.3 models late 2021, after the Chromium
	// team cut the interception probes' load on the roots (§3.2.2 cites a
	// September 2021 B-root check at 30% of the 2020 level).
	ChromiumScale float64
	// Letters to keep; nil means all 13. Every record's letter is still
	// drawn over all 13 roots by letterWeights, and only the records of
	// the listed letters are encoded, so a listed letter's trace is the
	// same bytes whichever other letters are listed.
	Letters []string
}

// junkFactor scales non-Chromium single-label noise volume relative to
// Chromium volume: enough misconfiguration and DGA traffic at the roots
// that the §3.2 collision filter has junk to reject.
const junkFactor = 0.4

// Stats summarizes a generation run: the records written, so a letter
// subset counts only its own letters' records.
type Stats struct {
	Records  int
	Chromium int
	Junk     int
	// WeightTotal is the represented (pre-sampling) query count.
	WeightTotal uint64
}

// letterWeights skews query volume across root letters the way resolver
// selection algorithms do (closest/fastest letters absorb more).
var letterWeights = []float64{1.3, 0.9, 0.8, 1.1, 0.7, 1.2, 0.6, 1.0, 0.7, 1.4, 1.0, 0.9, 1.1}

// junkNames are misconfiguration suffix-less queries that reach the roots
// constantly from many resolvers. Some ("columbia") match the Chromium
// length/charset pattern and exist precisely to exercise the collision
// threshold.
var junkNames = []string{
	"local", "home", "lan", "corp", "wpad", "belkin", "internal",
	"localdomain", "workgroup", "columbia", "routerlogin", "openwrt",
}

// Generator produces DITL-style traces from the workload model.
type Generator struct {
	model *traffic.Model
	seed  randx.Seed
	// googleEgress maps PoP index → the egress address Google Public DNS
	// queries the roots from.
	googleEgress map[int]netx.Addr
}

// NewGenerator builds a trace generator over the workload model.
func NewGenerator(model *traffic.Model) *Generator {
	g := &Generator{
		model:        model,
		seed:         model.W.Cfg.Seed,
		googleEgress: make(map[int]netx.Addr),
	}
	for i, pop := range model.Router.PoPs() {
		if pop.Active {
			g.googleEgress[i] = model.W.GoogleEgress(i)
		}
	}
	return g
}

// source is one root-query emitter with its Chromium probe rate.
type source struct {
	addr netx.Addr
	rate float64 // Chromium probes/second (pre-diurnal)
	lon  float64
}

// sources aggregates per-resolver and per-Google-PoP Chromium rates from
// the world: a prefix's probes split between its ISP resolver and Google
// Public DNS by the AS's Google share.
func (g *Generator) sources() []source {
	popRate := make(map[int]float64)
	for i := range g.model.W.Prefixes {
		pi := &g.model.W.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		as := g.model.W.ASes[pi.ASIdx]
		probes := g.model.ChromiumProbeRate(pi)
		pop := g.model.Router.PoPForClient(pi.P, pi.Coord)
		popRate[pop] += probes * as.GoogleDNSShare * (1 - g.model.Tun.GoogleRootSuppression)
	}
	var out []source
	// The resolver half comes from the traffic model's shared per-resolver
	// aggregation (the streaming DNS-logs channel watches the same rates);
	// forwarder-hidden resolvers come back as zero and emit nothing.
	for idx, rate := range g.model.ResolverRootRates() {
		if rate <= 0 {
			continue
		}
		r := g.model.W.Resolvers[idx]
		out = append(out, source{addr: r.Addr, rate: rate, lon: r.Coord.Lon})
	}
	for pop, rate := range popRate {
		egress, ok := g.googleEgress[pop]
		if !ok {
			continue
		}
		out = append(out, source{addr: egress, rate: rate, lon: g.model.Router.PoPs()[pop].Coord.Lon})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Generate writes traces for cfg.Letters, opening one sink per letter via
// open. Records within each letter are time-ordered. Every sink that open
// returned is closed, on error too.
func (g *Generator) Generate(cfg GenConfig, open func(letter string) (io.WriteCloser, error)) (stats Stats, err error) {
	if cfg.PerSourceHourCap <= 0 {
		cfg.PerSourceHourCap = 50
	}
	if cfg.ChromiumScale <= 0 {
		cfg.ChromiumScale = 1
	}
	letters := cfg.Letters
	if letters == nil {
		letters = Letters
	}
	// writers[li] and sinks[li] belong to Letters[li], nil for a letter
	// whose records are drawn but not kept. A closed sink is set to nil.
	writers := make([]*Writer, len(Letters))
	sinks := make([]io.WriteCloser, len(Letters))
	defer func() {
		if err != nil {
			for _, wc := range sinks {
				if wc != nil {
					wc.Close()
				}
			}
		}
	}()
	for _, l := range letters {
		li := slices.Index(Letters, l)
		if li < 0 || sinks[li] != nil {
			return Stats{}, fmt.Errorf("roots: unknown or repeated letter %q", l)
		}
		wc, err := open(l)
		if err != nil {
			return Stats{}, err
		}
		sinks[li] = wc
		if writers[li], err = NewWriter(wc, l); err != nil {
			return Stats{}, err
		}
	}

	srcs := g.sources()
	// DGA-style names: random-looking, but repeated heavily enough across
	// sources to exceed any sane collision threshold.
	dgaRng := g.seed.New("roots/dga")
	dga := make([]string, 40)
	for i := range dga {
		dga[i] = dgaRng.LowerLetters(7 + dgaRng.Intn(9))
	}

	hours := int(cfg.Duration.Hours() + 0.5)
	// One emit stream and one count stream reseeded per (source, hour)
	// instead of constructed: a fresh Stream carries a ~5KB source, and the
	// loop below visits every source every simulated hour. The byte-built
	// keys are identical to the former fmt.Sprintf ones, so the reseeded
	// streams draw the exact sequences the per-iteration streams drew.
	emitRng := g.seed.New("roots/emit/0/0")
	countRng := g.seed.New("roots/count-scratch")
	var ekb, ckb [48]byte
	for h := 0; h < hours; h++ {
		hourStart := cfg.Start.Add(time.Duration(h) * time.Hour)
		perLetter := make([][]Record, len(Letters))
		for si, src := range srcs {
			ek := append(ekb[:0], "roots/emit/"...)
			ek = strconv.AppendInt(ek, int64(si), 10)
			ek = append(ek, '/')
			ek = strconv.AppendInt(ek, int64(h), 10)
			g.seed.ReseedB(emitRng, ek)
			rng := emitRng
			emit := func(n int, weight uint32, mkName func() string, qtype dnswire.Type, isChromium bool) {
				for i := 0; i < n; i++ {
					li := rng.WeightedChoice(letterWeights)
					rec := Record{
						Time:   hourStart.Add(time.Duration(rng.Float64() * float64(time.Hour))),
						Src:    src.addr,
						QName:  mkName(),
						QType:  qtype,
						Weight: weight,
					}
					if writers[li] == nil {
						continue
					}
					perLetter[li] = append(perLetter[li], rec)
					stats.Records++
					stats.WeightTotal += uint64(weight)
					if isChromium {
						stats.Chromium++
					} else {
						stats.Junk++
					}
				}
			}

			// sampled converts an expected count into (records, weight):
			// above the cap, records carry proportionally larger weights
			// so represented volume is preserved.
			sampled := func(count int) (int, uint32) {
				if count <= cfg.PerSourceHourCap {
					return count, 1
				}
				weight := uint32((count + cfg.PerSourceHourCap - 1) / cfg.PerSourceHourCap)
				return (count + int(weight) - 1) / int(weight), weight
			}

			// count draws one bucket sample through the reused stream;
			// the category keys ("roots/chromium/<si>", ...) match the
			// former Sprintf keys byte for byte.
			count := func(category string, rate float64) int {
				ck := append(ckb[:0], category...)
				ck = strconv.AppendInt(ck, int64(si), 10)
				return g.model.CountInDR(countRng, ck, rate, src.lon, 1, hourStart, time.Hour)
			}

			// Chromium interception probes.
			n, weight := sampled(count("roots/chromium/", src.rate*cfg.ChromiumScale))
			emit(n, weight, func() string { return rng.LowerLetters(7 + rng.Intn(9)) }, dnswire.TypeA, true)

			// Junk: misconfigured single-label names (heavy collisions)...
			n, weight = sampled(count("roots/junk/", src.rate*junkFactor))
			emit(n, weight, func() string { return junkNames[rng.Intn(len(junkNames))] }, dnswire.TypeA, false)
			// ...DGA-style repeated random names...
			n, weight = sampled(count("roots/dgaq/", src.rate*junkFactor*0.3))
			emit(n, weight, func() string { return dga[rng.Intn(len(dga))] }, dnswire.TypeA, false)
			// ...and ordinary TLD-bearing queries leaking to the roots.
			n, weight = sampled(count("roots/tld/", src.rate*junkFactor))
			emit(n, weight, func() string { return rng.LowerLetters(4+rng.Intn(8)) + ".com" }, dnswire.TypeNS, false)
		}
		for li, recs := range perLetter {
			sort.Slice(recs, func(a, b int) bool { return recs[a].Time.Before(recs[b].Time) })
			for _, rec := range recs {
				if err := writers[li].Write(rec); err != nil {
					return stats, err
				}
			}
		}
	}
	for li, tw := range writers {
		if tw == nil {
			continue
		}
		err = tw.Close()
		if cerr := sinks[li].Close(); err == nil {
			err = cerr
		}
		sinks[li] = nil
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
