package churn

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"clientmap/internal/netx"
	"clientmap/internal/world"
)

// Kind enumerates the world events a churn plan can contain. The
// numeric order is the apply order within one sim hour, so a plan
// replays identically no matter which process replays it.
type Kind uint8

const (
	// KindRealloc moves one announced /24 to a new AS with a redrawn
	// client population (possibly zero — the block goes dark).
	KindRealloc Kind = iota + 1
	// KindDrift steps every AS's Google DNS share by one multiplicative
	// log-normal factor.
	KindDrift
	// KindDiurnal rescales the diurnal amplitude of a deterministic
	// sample of prefixes.
	KindDiurnal
	// KindPoPWithdraw removes a PoP from the probing fabric.
	KindPoPWithdraw
	// KindPoPAnnounce returns a withdrawn PoP to the fabric.
	KindPoPAnnounce
	// KindChromiumOff deprecates the Chromium interception probes.
	KindChromiumOff
)

// String names the kind for reports and golden corpora.
func (k Kind) String() string {
	switch k {
	case KindRealloc:
		return "realloc"
	case KindDrift:
		return "drift"
	case KindDiurnal:
		return "diurnal"
	case KindPoPWithdraw:
		return "pop-withdraw"
	case KindPoPAnnounce:
		return "pop-announce"
	case KindChromiumOff:
		return "chromium-off"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Event is one world change, quantized to the sim hour it takes effect
// in (events apply at the hour's start, before that hour's probes).
// Realloc events carry every redrawn value, materialized at plan time;
// drift and diurnal events carry only their process parameters and key
// each per-AS/per-prefix redraw by (seed, tick, target), so applying an
// event is a pure function wherever it runs.
type Event struct {
	Hour int
	Kind Kind
	// Tick is the recurring process's tick index (1-based), keying the
	// event's random redraws.
	Tick int

	// Realloc payload.
	Prefix         netx.Slash24
	NewASN         uint32
	NewASIdx       int32
	NewUsers       float32
	NewActivity    float32
	NewDiurnality  float32
	NewResolverIdx int32

	// Drift / diurnal payload.
	Sigma float64
	Delta float64

	// PoP payload.
	PoP string
}

// Describe renders the event for the streaming report and the golden
// coverage-lag table.
func (e Event) Describe() string {
	switch e.Kind {
	case KindRealloc:
		if e.NewUsers > 0 {
			return fmt.Sprintf("%s -> AS%d (%.2f users)", e.Prefix, e.NewASN, e.NewUsers)
		}
		return fmt.Sprintf("%s -> AS%d (dark)", e.Prefix, e.NewASN)
	case KindDrift:
		return fmt.Sprintf("resolver-share step sigma=%g", e.Sigma)
	case KindDiurnal:
		return fmt.Sprintf("diurnal amplitude shift delta=%g", e.Delta)
	case KindPoPWithdraw, KindPoPAnnounce:
		return e.PoP
	case KindChromiumOff:
		return "chromium probes deprecated"
	default:
		return e.Kind.String()
	}
}

// diurnalSampleFrac is the fraction of announced prefixes one diurnal
// tick rescales.
const diurnalSampleFrac = 0.10

// Plan expands the config into the hour-quantized event list for a
// stream of the given length. The plan is a pure function of (c.Seed, c,
// the initial world): realloc targets and redraws are materialized here
// from the generation-time prefix and AS tables (which churn never grows
// or shrinks), so a resumed stream derives the byte-identical plan a
// continuous stream derived. Events are ordered by (hour, kind, tick,
// sequence) — the exact order Apply replays them in.
func (c Config) Plan(hours int, w *world.World) []Event {
	var events []Event
	horizon := time.Duration(hours) * time.Hour

	if c.Realloc.Count > 0 {
		rng := c.Seed.New("churn/realloc")
		var key []byte
		for tick := 1; time.Duration(tick)*c.Realloc.Every < horizon; tick++ {
			hour := int(time.Duration(tick) * c.Realloc.Every / time.Hour)
			for i := 0; i < c.Realloc.Count; i++ {
				key = key[:0]
				key = append(key, "churn/realloc/"...)
				key = strconv.AppendInt(key, int64(tick), 10)
				key = append(key, '/')
				key = strconv.AppendInt(key, int64(i), 10)
				c.Seed.ReseedB(rng, key)
				ev := Event{Hour: hour, Kind: KindRealloc, Tick: tick}
				// Pick an announced /24 outside the Google AS, and a new
				// origin AS different from both Google and the current
				// origin. A handful of retries suffices at every scale;
				// give up (skip the event) rather than loop forever on a
				// degenerate world.
				ok := false
				for try := 0; try < 16; try++ {
					pi := &w.Prefixes[rng.Intn(len(w.Prefixes))]
					if pi.ASIdx == w.GoogleASIdx() {
						continue
					}
					as := int32(rng.Intn(len(w.ASes)))
					if as == w.GoogleASIdx() || as == pi.ASIdx {
						continue
					}
					ev.Prefix = pi.P
					ev.NewASIdx = as
					ev.NewASN = w.ASes[as].ASN
					ok = true
					break
				}
				if !ok {
					continue
				}
				// Redraw the population the way the generator draws fresh
				// space: ~a third of transfers go dark, the rest get an
				// eyeball-shaped population.
				if rng.Bool(0.35) {
					ev.NewUsers = 0
				} else {
					ev.NewUsers = float32(0.02 + rng.LogNormal(0, 0.7))
					ev.NewActivity = float32(rng.LogNormal(0, 0.5))
					ev.NewDiurnality = float32(0.75 + rng.Float64()*0.25)
				}
				ev.NewResolverIdx = -1
				if rs := w.ASes[ev.NewASIdx].Resolvers; len(rs) > 0 {
					ev.NewResolverIdx = rs[rng.Intn(len(rs))]
				}
				events = append(events, ev)
			}
		}
	}

	if c.Drift.Sigma > 0 {
		for tick := 1; time.Duration(tick)*c.Drift.Every < horizon; tick++ {
			hour := int(time.Duration(tick) * c.Drift.Every / time.Hour)
			events = append(events, Event{Hour: hour, Kind: KindDrift, Tick: tick, Sigma: c.Drift.Sigma})
		}
	}

	if c.Diurnal.Delta > 0 {
		for tick := 1; time.Duration(tick)*c.Diurnal.Every < horizon; tick++ {
			hour := int(time.Duration(tick) * c.Diurnal.Every / time.Hour)
			events = append(events, Event{Hour: hour, Kind: KindDiurnal, Tick: tick, Delta: c.Diurnal.Delta})
		}
	}

	for _, pw := range c.sortedPoPs() {
		start := int(pw.Start / time.Hour)
		if start >= hours {
			continue
		}
		events = append(events, Event{Hour: start, Kind: KindPoPWithdraw, PoP: pw.PoP})
		if end := int((pw.Start + pw.Duration) / time.Hour); end < hours {
			events = append(events, Event{Hour: end, Kind: KindPoPAnnounce, PoP: pw.PoP})
		}
	}

	if c.ChromiumOff {
		if at := int(c.ChromiumOffAt / time.Hour); at < hours {
			events = append(events, Event{Hour: at, Kind: KindChromiumOff})
		}
	}

	// Stable sort keeps each process's generation order within an hour;
	// the kind tiebreak fixes the cross-process apply order.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Hour != events[j].Hour {
			return events[i].Hour < events[j].Hour
		}
		return events[i].Kind < events[j].Kind
	})
	return events
}

// EventsAt returns the subsequence of a Plan-ordered event list that
// takes effect at the given hour.
func EventsAt(plan []Event, hour int) []Event {
	lo := sort.Search(len(plan), func(i int) bool { return plan[i].Hour >= hour })
	hi := sort.Search(len(plan), func(i int) bool { return plan[i].Hour > hour })
	return plan[lo:hi]
}

// Effect is what applying events changed of the world state that
// memos derived from it may hold. No churn kind moves a client /24 or
// changes the anycast catalog, so client routes never go stale; only
// per-/24 traffic rates and diurnality do. The zero value changes
// nothing.
type Effect struct {
	// AllRates reports that every /24's Google DNS rate moved (drift
	// steps every AS's share).
	AllRates bool
	// Prefixes lists the /24s whose own fields changed (a realloc's
	// origin AS and population, a diurnal tick's rescaled amplitudes), in
	// no particular order and possibly repeated.
	Prefixes []netx.Slash24
}

// Merge folds o into e.
func (e *Effect) Merge(o Effect) {
	e.AllRates = e.AllRates || o.AllRates
	e.Prefixes = append(e.Prefixes, o.Prefixes...)
}

// Empty reports whether e changes nothing.
func (e Effect) Empty() bool { return !e.AllRates && len(e.Prefixes) == 0 }

// Apply replays one event onto the world and returns its effect. Drift
// and diurnal redraws are keyed by (seed, tick, target), so applying the
// same event to the same world state always produces the same world —
// the property the kill/resume guarantee of the streaming mode rests on.
// Per kind:
//
//   - realloc changes its one /24;
//   - diurnal changes the /24s it rescales;
//   - drift changes every /24's rate;
//   - chromium-off changes only the Chromium share, which no rate memo
//     reads;
//   - PoP withdraw and announce mutate no world state (the streaming
//     scheduler interprets them); Apply accepts them as no-ops so
//     callers can replay a whole hour uniformly.
func (c Config) Apply(ev Event, w *world.World) Effect {
	switch ev.Kind {
	case KindRealloc:
		w.Realloc(ev.Prefix, ev.NewASIdx, ev.NewUsers, ev.NewActivity, ev.NewDiurnality, ev.NewResolverIdx)
		return Effect{Prefixes: []netx.Slash24{ev.Prefix}}
	case KindDrift:
		rng := c.Seed.New("churn/drift-scratch")
		var key []byte
		for i, as := range w.ASes {
			if int32(i) == w.GoogleASIdx() {
				continue
			}
			key = key[:0]
			key = append(key, "churn/drift/"...)
			key = strconv.AppendInt(key, int64(ev.Tick), 10)
			key = append(key, '/')
			key = strconv.AppendUint(key, uint64(as.ASN), 10)
			c.Seed.ReseedB(rng, key)
			w.SetGoogleDNSShare(int32(i), as.GoogleDNSShare*rng.LogNormal(0, ev.Sigma))
		}
		return Effect{AllRates: true}
	case KindDiurnal:
		var eff Effect
		var key []byte
		for i := range w.Prefixes {
			pi := &w.Prefixes[i]
			key = key[:0]
			key = append(key, "churn/diurnal/"...)
			key = strconv.AppendInt(key, int64(ev.Tick), 10)
			key = append(key, '/')
			key = pi.P.AppendTo(key)
			u := c.Seed.HashUnitB(key)
			if u >= diurnalSampleFrac {
				continue
			}
			// Reuse the selection draw's low bits as the factor draw:
			// u/diurnalSampleFrac is uniform in [0,1) given selection.
			factor := 1 + ev.Delta*(2*u/diurnalSampleFrac-1)
			w.ScaleDiurnality(pi.P, factor)
			eff.Prefixes = append(eff.Prefixes, pi.P)
		}
		return eff
	case KindChromiumOff:
		w.SetChromiumShare(0)
	}
	return Effect{}
}
