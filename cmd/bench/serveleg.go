package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"syscall"
	"time"
)

// The serve leg: the real clientmapd on one CPU, the load generator on
// the others, three kinds of load in turn.
//
//	A  DNS over UDP, closed loop: throughput and the daemon's CPU per query
//	B  DNS over UDP, open loop at a fixed rate: latency from each due time
//	C  HTTP, closed loop over keep-alive connections: throughput, CPU, latency
//
// The measuring time (-seconds) is split 30/40/30 between them and dealt
// out in rounds (A B C, A B C, …), so that a slow spell of the host lands
// on a part of every phase rather than on the whole of one.

const (
	serveRounds = 3
	// closedSlices is how many slices a closed-loop phase is cut into per
	// round.
	closedSlices = 4
	// openLoopRate is the fixed arrival rate of the open-loop phase.
	openLoopRate = 8000
	// openWindowSamples is how many queries one window of the open-loop
	// phase holds.
	openWindowSamples = 400
	echoSlices        = 4
	echoSlice         = 75 * time.Millisecond
)

// Validity gates: outside them the workload is not the one its name
// claims, or it is the generator or the host that was measured.
const (
	hotMinHitRatio  = 0.9
	coldMaxHitRatio = 0.15
	// minHeadroom is how much more the generator must reach against the
	// echo stub than it reached against the daemon. On a two-CPU host the
	// generator's own two system calls per query cost about what the
	// daemon spends answering a cached name, so far more than this is
	// not to be had; dns_cpu_us_per_query keeps resolving what dns_qps
	// no longer can.
	minHeadroom  = 1.1
	maxLateP99US = 1000.0
)

// closedStats is the closed-loop phases of all rounds reduced to their
// figures: each over the quiet half of the slices (see stats.go), with
// the median slice kept beside it for comparison.
type closedStats struct {
	qps, cpuUS, p50, p99                         float64
	qpsMedian, cpuUSMedian, p50Median, p99Median float64
}

func reduceClosed(rounds []*phaseResult, sliceSeconds float64) closedStats {
	var qps, cpu []float64
	var lat latencyWindows
	for _, r := range rounds {
		qps = append(qps, r.slices.rates(sliceSeconds)...)
		for s, n := range r.slices.counts {
			if s < len(r.cpuS) && n > 0 {
				cpu = append(cpu, r.cpuS[s]*1e6/float64(n))
			}
		}
		lat = append(lat, r.lat...)
	}
	st := closedStats{
		qps: quietHalf(qps, true), qpsMedian: median(qps),
		cpuUS: quietHalf(cpu, false), cpuUSMedian: median(cpu),
	}
	ps := lat.quietUS(50, 99)
	st.p50, st.p99 = ps[0], ps[1]
	ps = lat.medianWindowUS(50, 99)
	st.p50Median, st.p99Median = ps[0], ps[1]
	return st
}

// served is what the serve leg leaves for the ladder.
type served struct {
	dnsQPS float64
	// traceOverheadPct compares phase A's traced slices with its untraced
	// ones (a traced run only).
	traceOverheadPct float64
	dnsHit           float64
	httpHit          float64
	echoQPS          float64
	lateP99US        float64
}

// serveLeg boots clientmapd on the artifact and drives the load phases
// against it.
func (b *bench) serveLeg(w workload, rep *report, tr *tracer, root int64, daemonBin, artifact string, pl *plan) (*served, error) {
	serveID, endServe := tr.begin("serve", root)
	defer endServe()

	place := newPlacement()
	serverCPUs := place.serverCPUs()
	_, endBoot := tr.begin("daemon-boot", serveID)
	dcmd := exec.Command(daemonBin, "-artifact", artifact, "-rate=-1", "-reload", "0",
		"-http", "127.0.0.1:0", "-dns", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	daemon, err := b.procs.startServer(dcmd, serverCPUs, map[string]string{"http": "http api on ", "dns": "dns on ", "debug": "debug mux on "})
	endBoot()
	if err != nil {
		return nil, err
	}
	defer b.procs.stop(daemon.cmd, syscall.SIGTERM, 5*time.Second)
	echo, err := b.procs.startServer(exec.Command(b.self, "-echo"), serverCPUs, map[string]string{"udp": "echo on "})
	if err != nil {
		return nil, err
	}
	defer b.procs.stop(echo.cmd, syscall.SIGKILL, time.Second)

	dnsAddr, httpAddr := daemon.addrs["dns"], daemon.addrs["http"]
	n := pl.len()
	dialD := func() (pipe, error) { return dialDNS(dnsAddr, pl, wantPlanAnswer) }
	dialH := func() (pipe, error) { return dialHTTP(httpAddr, pl) }
	// One generator thread per CPU the daemon does not run on.
	workers := max(len(place.generator.list()), 1)
	// Each transport walks the plan with its own cursor, so a cold name
	// is never asked twice within a cache's lifetime.
	dnsAt, httpAt := 0, 0
	run := func(l loop) (*phaseResult, error) {
		l.workers, l.place = workers, place
		res, err := l.run()
		if err != nil {
			return nil, err
		}
		rep.account(l.name, res)
		return res, nil
	}
	walk := func(cursor *int, l loop) (*phaseResult, error) {
		at := *cursor
		l.index = func(k int) int { return (at + k) % n }
		res, err := run(l)
		if err == nil {
			*cursor = (at + int(res.sent)) % n
		}
		return res, err
	}

	// Warm-up. Hot: every distinct name of the plan once, which leaves
	// the whole mix cached. Cold: as many fresh names as the cache has
	// slots, so that every insert of the measured phases evicts.
	_, endWarm := tr.begin("warm-up", serveID)
	if w.mix == mixHot {
		for _, l := range []loop{
			{name: "warm-dns", limit: len(pl.firstDNS), dial: dialD, index: func(k int) int { return int(pl.firstDNS[k]) }},
			{name: "warm-http", limit: len(pl.firstHTTP), dial: dialH, index: func(k int) int { return int(pl.firstHTTP[k]) }},
		} {
			if _, err := run(l); err != nil {
				return nil, err
			}
		}
	} else {
		fill := cacheSlots
		if b.opts.smoke {
			fill = 4096
		}
		if _, err := walk(&dnsAt, loop{name: "warm-dns", limit: fill, dial: dialD}); err != nil {
			return nil, err
		}
		if _, err := walk(&httpAt, loop{name: "warm-http", limit: fill, dial: dialH}); err != nil {
			return nil, err
		}
	}
	endWarm()

	// The generator against a server that does nothing: its headroom
	// over the daemon shows which of the two a closed loop measured.
	_, endEcho := tr.begin("gen-echo", serveID)
	echoRes, err := run(loop{
		name: "echo", slices: echoSlices, sliceDur: echoSlice,
		index: func(k int) int { return k % n },
		dial:  func() (pipe, error) { return dialDNS(echo.addrs["udp"], pl, wantSameBytes) },
	})
	endEcho()
	if err != nil {
		return nil, err
	}
	sv := &served{echoQPS: quietHalf(echoRes.slices.rates(echoSlice.Seconds()), true)}

	total := time.Duration(b.opts.seconds) * time.Second
	closedSlice := total * 3 / 10 / (serveRounds * closedSlices)
	openDur := total * 4 / 10 / serveRounds
	openWindows := max(int(openLoopRate*openDur.Seconds())/openWindowSamples, 1)
	closed := func(cursor *int, name string, dial func() (pipe, error), t *tracer, parent int64) (*phaseResult, error) {
		return walk(cursor, loop{name: name, slices: closedSlices, sliceDur: closedSlice, dial: dial, tr: t, parent: parent, cpuOf: daemon.pid()})
	}
	before, err := scrapeMetrics(daemon.addrs["debug"])
	if err != nil {
		return nil, err
	}
	var dnsClosed, httpClosed []*phaseResult
	var dnsOpen latencyWindows
	var late latencyWindows
	for round := 0; round < serveRounds; round++ {
		phaseA, endA := tr.begin("dns-closed", serveID)
		a, err := closed(&dnsAt, "dns-query", dialD, tr, phaseA)
		endA()
		if err != nil {
			return nil, err
		}
		dnsClosed = append(dnsClosed, a)

		_, endB := tr.begin("dns-open", serveID)
		o, err := openLoopDNS(dnsAddr, pl, openLoopRate, openDur, dnsAt, openWindows, wantPlanAnswer, place)
		endB()
		if err != nil {
			return nil, err
		}
		dnsAt = (dnsAt + int(o.sent)) % n
		rep.account("dns-open", o)
		dnsOpen = append(dnsOpen, o.lat...)
		late = append(late, cutWindows(o.late, openWindows)...)

		phaseC, endC := tr.begin("http-closed", serveID)
		c, err := closed(&httpAt, "http-request", dialH, tr, phaseC)
		endC()
		if err != nil {
			return nil, err
		}
		httpClosed = append(httpClosed, c)
	}
	after, err := scrapeMetrics(daemon.addrs["debug"])
	if err != nil {
		return nil, err
	}

	a := reduceClosed(dnsClosed, closedSlice.Seconds())
	sv.dnsQPS = a.qps
	rep.e2e["dns_qps"], rep.e2e["dns_cpu_us_per_query"] = a.qps, a.cpuUS
	rep.info["dns_qps.median_slice"], rep.info["dns_cpu_us_per_query.median_slice"] = a.qpsMedian, a.cpuUSMedian
	if tr != nil {
		var traced, untraced []float64
		for _, r := range dnsClosed {
			for s, rate := range r.slices.rates(closedSlice.Seconds()) {
				if s%2 == 0 {
					traced = append(traced, rate)
				} else {
					untraced = append(untraced, rate)
				}
			}
		}
		sv.traceOverheadPct = 100 * (median(untraced) - median(traced)) / median(untraced)
	}

	ps := dnsOpen.quietUS(50, 99)
	rep.e2e["dns_p50_us"], rep.e2e["dns_p99_us"] = ps[0], ps[1]
	ps = dnsOpen.medianWindowUS(50, 99)
	rep.info["dns_p50_us.median_window"], rep.info["dns_p99_us.median_window"] = ps[0], ps[1]
	rep.info["dns_open_samples"] = float64(dnsOpen.samples())
	sv.lateP99US = late.quietUS(99)[0]

	c := reduceClosed(httpClosed, closedSlice.Seconds())
	rep.e2e["http_qps"], rep.e2e["http_cpu_us_per_query"] = c.qps, c.cpuUS
	rep.e2e["http_p50_us"], rep.e2e["http_p99_us"] = c.p50, c.p99
	rep.info["http_qps.median_slice"], rep.info["http_cpu_us_per_query.median_slice"] = c.qpsMedian, c.cpuUSMedian
	rep.info["http_p50_us.median_slice"], rep.info["http_p99_us.median_slice"] = c.p50Median, c.p99Median

	if w.rssOfDaemon {
		if rep.e2e["peak_rss_mb"], err = procPeakRSSMiB(daemon.pid()); err != nil {
			return nil, err
		}
	}
	ratio := func(hits, queries string) float64 {
		q := after[queries] - before[queries]
		if q <= 0 {
			return 0
		}
		return float64(after[hits]-before[hits]) / float64(q)
	}
	sv.dnsHit = ratio("serve.dns.cache_hits", "serve.dns.queries")
	sv.httpHit = ratio("serve.http.cache_hits", "serve.http.queries")
	headroom := sv.echoQPS / sv.dnsQPS
	rep.info["serve.dns_cache_hit_ratio"] = sv.dnsHit
	rep.info["serve.http_cache_hit_ratio"] = sv.httpHit
	rep.info["gen.echo_qps"] = sv.echoQPS
	rep.info["gen.headroom_x"] = headroom
	rep.info["gen.late_p99_us"] = sv.lateP99US

	// A mix that misses its side of the cache is a different workload
	// under the same name: that is wrong output, not bad luck.
	if w.mix == mixHot && sv.dnsHit < hotMinHitRatio {
		rep.problemf("hot mix: daemon's dns cache hit ratio is %.3f, below %.2f — this is not the cache-hit path", sv.dnsHit, hotMinHitRatio)
	}
	if w.mix == mixCold && sv.dnsHit > coldMaxHitRatio {
		rep.problemf("cold mix: daemon's dns cache hit ratio is %.3f, above %.2f — this is not the cache-miss path", sv.dnsHit, coldMaxHitRatio)
	}
	if headroom < minHeadroom {
		rep.gatef("generator headroom is %.2fx (echo %.0f q/s, daemon %.0f q/s), below %.1fx — the generator, not the daemon, set dns_qps", headroom, sv.echoQPS, sv.dnsQPS, minHeadroom)
	}
	if sv.lateP99US > maxLateP99US {
		rep.gatef("open-loop sender ran %.0f µs late at p99, above %.0f µs — the schedule was not kept", sv.lateP99US, maxLateP99US)
	}
	return sv, nil
}

// account adds a load phase's operations to the run's totals. A wrong
// answer makes the run incorrect; a lost query is counted as failed.
func (r *report) account(phase string, p *phaseResult) {
	r.attempted += p.sent
	r.failed += p.failed + p.wrong
	if p.wrong > 0 {
		r.problemf("%s: %d of %d replies did not carry the expected answer", phase, p.wrong, p.sent)
	}
	if p.failed > 0 {
		r.gatef("%s: %d of %d queries got no reply within %s", phase, p.failed, p.sent, replyTimeout)
	}
}

// scrapeMetrics reads the daemon's /metrics ledger.
func scrapeMetrics(addr string) (map[string]int64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	led := map[string]int64{}
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("daemon /metrics: %w", err)
	}
	return led, nil
}
