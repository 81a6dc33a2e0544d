package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/clockx"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/experiments"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/roots"
	"clientmap/internal/routeviews"
	"clientmap/internal/serve"
	"clientmap/internal/sim"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefs"
	"clientmap/internal/statefsck"
	"clientmap/internal/stream"
	"clientmap/internal/world"
)

// The ladder: the traced run's second half. One rung per layer boundary,
// each measured from outside by timing calls into the layer's public
// functions, on inputs the workload itself produced where it produced
// them and on small-scale stand-ins where it did not. Every workload's
// traced run climbs the whole ladder, so every per-layer metric has a
// value on every workload; the rungs fed by the workload's own run (the
// stage spans, the cache hit ratios, the generator's figures) are the
// ones that differ between workloads.

type ladderInputs struct {
	stages   []stageSpan // the produce leg's first fresh run
	stateDir string      // its finished state directory
	produce  string      // "eval" or "stream"
	cm       *serve.ClientMap
	ix       *serve.Index
	plan     *plan
	artifact string
	serve    *served
}

type ladder struct {
	b      *bench
	rep    *report
	tr     *tracer
	parent int64
	in     ladderInputs
	scale  world.Scale
	seed   randx.Seed
}

// rung runs f inside a span named after the layer.
func (l *ladder) rung(name string, f func() error) error {
	_, end := l.tr.begin("ladder/"+name, l.parent)
	defer end()
	if err := f(); err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	return nil
}

func (l *ladder) set(name string, v float64) { l.rep.layers[name] = v }

// timed returns how long f took, in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// perOp returns the wall nanoseconds one call of f takes: the best mean
// of three batches of n calls.
func perOp(n int, f func(i int)) float64 {
	bestNS := 0.0
	for batch := 0; batch < 3; batch++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		ns := float64(time.Since(t0)) / float64(n)
		if batch == 0 || ns < bestNS {
			bestNS = ns
		}
	}
	return bestNS
}

func allocsPerOp(f func()) float64 { return testing.AllocsPerRun(200, f) }

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

func (b *bench) ladder(w workload, rep *report, tr *tracer, in ladderInputs) error {
	scale := world.ScaleSmall
	if b.opts.smoke {
		scale = world.ScaleTiny
	}
	id, end := tr.begin("ladder", 0)
	defer end()
	l := &ladder{b: b, rep: rep, tr: tr, parent: id, in: in, scale: scale, seed: randx.Seed(b.opts.worldSeed)}
	for _, r := range []struct {
		name string
		f    func() error
	}{
		{"pipeline", l.pipeline},
		{"stream", l.stream},
		{"dnswire", l.dnswire},
		{"dnsnet", l.dnsnet},
		{"cacheprobe", l.cacheprobe},
		{"ditl", l.ditl},
		{"statefs", l.statefs},
		{"serve", l.serveLayers},
	} {
		if err := l.rung(r.name, r.f); err != nil {
			return err
		}
	}
	for _, m := range perLayer[:unbounded] {
		l.set(m.Name, rep.e2e[m.Name])
	}
	sv := in.serve
	l.set("serve.dns_cache_hit_ratio", sv.dnsHit)
	l.set("serve.http_cache_hit_ratio", sv.httpHit)
	l.set("gen.echo_qps", sv.echoQPS)
	l.set("gen.headroom_x", sv.echoQPS/sv.dnsQPS)
	l.set("gen.late_p99_us", sv.lateP99US)
	l.set("trace.overhead_pct", sv.traceOverheadPct)
	return nil
}

// pipeline reduces an evaluation's stage spans to the stage budget: from
// the workload's own run when that was an evaluation, else from a
// small-scale evaluation run here.
func (l *ladder) pipeline() error {
	stages := l.in.stages
	if l.in.produce != "eval" {
		log := newStageLog()
		cfg := experiments.DefaultConfig(l.seed, l.scale)
		cfg.StateDir = l.b.tmp("ladder-eval")
		cfg.Log = log.logf
		if _, err := experiments.Run(cfg); err != nil {
			return err
		}
		stages = log.result()
	}
	ix := indexStages(stages)
	var sum, first, last float64
	for i, s := range stages {
		sum += s.seconds()
		if i == 0 || s.Start < first {
			first = s.Start
		}
		last = max(last, s.End)
	}
	for _, name := range []string{"world", "scope-prescan", "calibration", "probe-pass-0", "ditl-dnslogs", "baselines", "dataset-views"} {
		s, err := ix.need(name)
		if err != nil {
			return err
		}
		l.set("pipeline.stage_s."+name, s.seconds())
	}
	passes := ix.withPrefix("probe-pass-")
	if len(passes) < 2 {
		return fmt.Errorf("only %d probe-pass-<k> stages yielded spans", len(passes))
	}
	rest, campaignEnd := 0.0, 0.0
	for _, s := range passes[1:] {
		rest += s.seconds()
		campaignEnd = max(campaignEnd, s.End)
	}
	l.set("pipeline.stage_s.probe-pass-rest", rest)
	var ckptMS float64
	var ckptBytes int64
	for _, s := range stages {
		ckptMS += s.CkptMS
		ckptBytes += s.CkptBytes
	}
	l.set("pipeline.checkpoint_write_ms", ckptMS)
	l.set("pipeline.checkpoint_bytes", float64(ckptBytes))
	l.set("pipeline.overlap_x", sum/(last-first))
	// Positive: the probing chain finished after the DITL chain, so
	// probing is what the run waited for.
	l.set("pipeline.critical_chain", campaignEnd-ix["ditl-dnslogs"].End)
	return nil
}

// stream measures the streaming mode's own layers on a short stream run
// here (its ledger, plan and checkpoints are not reachable in a child),
// and the hour budget from the workload's own run when that streamed.
func (l *ladder) stream() error {
	ch, err := churn.Parse(streamChurn)
	if err != nil {
		return err
	}
	const hours = 8
	dir := l.b.tmp("ladder-stream")
	log := newStageLog()
	res, err := experiments.RunStream(experiments.StreamConfig{
		Seed: l.seed, Scale: l.scale, Hours: hours, EmitEvery: 1, Churn: ch,
		StateDir: dir, ArtifactPath: filepath.Join(dir, "rolling.snap"), Log: log.logf,
	})
	if err != nil {
		return err
	}
	stages := log.result()
	if l.in.produce == "stream" {
		stages = l.in.stages
	}
	ix := indexStages(stages)
	var hourMS []float64
	for _, s := range ix.withPrefix("stream-hour-") {
		hourMS = append(hourMS, s.seconds()*1e3)
	}
	if len(hourMS) == 0 {
		return fmt.Errorf("no stream-hour-<k> stage yielded a span")
	}
	sort.Float64s(hourMS)
	l.set("stream.hour_ms.p50", percentile(hourMS, 50))
	l.set("stream.hour_ms.max", hourMS[len(hourMS)-1])
	setupS := 0.0
	for _, name := range []string{"world", "scope-prescan", "calibration"} {
		s, err := ix.need(name)
		if err != nil {
			return err
		}
		setupS += s.seconds()
	}
	l.set("stream.setup_s", setupS)

	// The hour-delta codec, on the last hour's checkpoint.
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("stream-hour-%d.snap", hours-1)))
	if err != nil {
		return err
	}
	var delta *stream.HourDelta
	if err := l.codec("hourdelta", data, func(r *snapshot.Reader) error {
		var err error
		delta, err = stream.DecodeHourDelta(r)
		return err
	}, func(w *snapshot.Writer) { stream.EncodeHourDelta(w, delta) }); err != nil {
		return err
	}

	// Ledger folds. DecayTo mutates, so each timing decays one further
	// hour past the end of the run; ServeScopes is read-only.
	led := res.State.Ledger
	at := int32(hours)
	l.set("stream.serve_scopes_ms", perOp(5, func(int) { sink = led.ServeScopes(at - 1) })/1e6)
	meta := res.FinalMap.Meta
	scopes := led.ServeScopes(at - 1)
	rv := routeviews.FromWorld(res.Sys.World)
	l.set("serve.assemble_ms", perOp(5, func(int) { sink = serve.Assemble(meta, scopes, rv, nil) })/1e6)
	l.set("stream.decay_to_ms", perOp(3, func(i int) { led.DecayTo(at + int32(i)) })/1e6)

	// The rolling exporter, handed a payload that differs every time.
	exp := &serve.RollingExporter{Path: filepath.Join(dir, "ladder-rolling.snap")}
	cm := *res.FinalMap
	var expErr error
	l.set("serve.rolling_export_ms", perOp(3, func(i int) {
		cm.Meta.Source = fmt.Sprintf("ladder export %d", i)
		if _, _, err := exp.Export(&cm); err != nil {
			expErr = err
		}
	})/1e6)
	if expErr != nil {
		return expErr
	}

	ch.Seed = l.seed
	w, err := world.Generate(world.Config{Seed: l.seed, Scale: l.scale, Params: world.DefaultParams()})
	if err != nil {
		return err
	}
	l.set("churn.plan_ms", perOp(3, func(int) { sink = ch.Plan(24, w) })/1e6)
	return nil
}

// codec times one snapshot kind both ways over data, a whole container
// as a checkpoint holds it, and records MB/s under the kind's name.
func (l *ladder) codec(kind string, data []byte, decode func(*snapshot.Reader) error, encode func(*snapshot.Writer)) error {
	h, _, _, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	var decErr error
	decNS := perOp(5, func(int) {
		_, r, _, err := snapshot.Open(data)
		if err == nil {
			err = decode(r)
		}
		if err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("decoding %s: %w", kind, decErr)
	}
	encNS := perOp(5, func(int) { sink, _ = snapshot.Marshal(h, encode) })
	mb := float64(len(data)) / 1e6
	l.set("snapshot.decode_mb_per_s."+kind, mb/(decNS/1e9))
	l.set("snapshot.encode_mb_per_s."+kind, mb/(encNS/1e9))
	return nil
}

// dnswire times the codec over the serve leg's own corpus: its planned
// queries, and the replies the daemon's handler gives to them.
func (l *ladder) dnswire() error {
	const corpus = 1024
	d := serve.NewDaemon(serve.Config{ArtifactPath: l.in.artifact, RateLimit: serve.LimiterConfig{Rate: -1}})
	if err := d.Start(); err != nil {
		return err
	}
	defer d.Close()
	p := l.in.plan
	n := min(corpus, p.len())
	queries := make([][]byte, n)
	replies := make([]*dnswire.Message, n)
	wire := make([][]byte, n)
	from := netx.AddrFrom4(127, 0, 0, 1)
	for i := range queries {
		queries[i] = p.dnsQuery(i)
		q, err := dnswire.Unmarshal(queries[i])
		if err != nil {
			return err
		}
		replies[i] = d.DNSHandler().ServeDNS(context.Background(), from, q)
		if wire[i], err = replies[i].Marshal(); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 4096)
	var m dnswire.Message
	var opErr error
	note := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	appendMarshal := func(i int) { b, err := replies[i%n].AppendMarshal(buf[:0]); sink = b; note(err) }
	unmarshalInto := func(i int) { note(dnswire.UnmarshalInto(&m, queries[i%n])) }
	marshal := func(i int) { b, err := replies[i%n].Marshal(); sink = b; note(err) }
	unmarshal := func(i int) { q, err := dnswire.Unmarshal(queries[i%n]); sink = q; note(err) }
	for _, op := range []struct {
		name string
		f    func(int)
	}{
		{"append_marshal", appendMarshal}, {"unmarshal_into", unmarshalInto},
		{"marshal", marshal}, {"unmarshal", unmarshal},
	} {
		l.set("dnswire."+op.name+"_ns", perOp(20*n, op.f))
		i := 0
		l.set("dnswire."+op.name+"_allocs", allocsPerOp(func() { op.f(i); i++ }))
	}
	return opErr
}

// dnsnet times the two transports: a real UDP socket pair against a
// dnsnet.Server with a canned-reply handler — the floor under the
// daemon's cost per query — and the in-memory exchange the campaign uses.
func (l *ladder) dnsnet() error {
	place := newPlacement()
	canned, err := l.b.procs.startServer(exec.Command(l.b.self, "-echo", "-canned"), place.serverCPUs(), map[string]string{"udp": "echo on "})
	if err != nil {
		return err
	}
	defer l.b.procs.stop(canned.cmd, syscall.SIGKILL, time.Second)
	p := l.in.plan
	n := p.len()
	res, err := loop{
		name: "canned", workers: max(len(place.generator.list()), 1), place: place,
		slices: echoSlices, sliceDur: echoSlice, cpuOf: canned.pid(),
		index: func(k int) int { return k % n },
		dial:  func() (pipe, error) { return dialDNS(canned.addrs["udp"], p, wantNoError) },
	}.run()
	if err != nil {
		return err
	}
	l.rep.account("canned", res)
	st := reduceClosed([]*phaseResult{res}, echoSlice.Seconds())
	l.set("dnsnet.udp_echo_us", 1e6/st.qps)
	l.set("dnsnet.udp_echo_cpu_us", st.cpuUS)

	mem := dnsnet.NewMemNet(false)
	mem.Register("canned", dnsnet.HandlerFunc(func(_ context.Context, _ netx.Addr, q *dnswire.Message) *dnswire.Message {
		return q.Reply()
	}))
	cl := mem.Client(netx.AddrFrom4(100, 64, 0, 1))
	q := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA)
	var exErr error
	l.set("dnsnet.loopback_exchange_ns", perOp(200000, func(int) {
		r, err := cl.Exchange(context.Background(), "canned", q)
		if err != nil {
			exErr = err
		}
		sink = r
	}))
	return exErr
}

// calibrated is a small-scale system assembled the way the repository's
// own benchmarks do, with a campaign taken through the scope pre-scan,
// the calibration and the assignment build, each timed.
type calibrated struct {
	sys    *sim.System
	prober *cacheprobe.Prober
	pops   map[string]*cacheprobe.Vantage
	camp   *cacheprobe.Campaign
	asg    *cacheprobe.Assignments

	prescanS, calibrateS, assignMS float64
}

const ladderPasses = 4

func (l *ladder) calibrate(workers int) (*calibrated, error) {
	s, err := sim.New(sim.Config{Seed: l.seed, Scale: l.scale})
	if err != nil {
		return nil, err
	}
	cfg := s.ProberConfig()
	cfg.Duration = ladderPasses * 12 * time.Hour
	cfg.Passes = ladderPasses
	cfg.Workers = workers
	c := &calibrated{sys: s, prober: s.Prober(cfg), camp: cacheprobe.NewCampaign()}
	ctx := context.Background()
	if c.pops, err = c.prober.DiscoverPoPs(ctx); err != nil {
		return nil, err
	}
	c.prescanS = timed(func() { err = c.prober.PreScan(ctx, c.camp) })
	if err != nil {
		return nil, err
	}
	c.calibrateS = timed(func() { c.prober.Calibrate(ctx, c.pops, c.camp) })
	c.assignMS = 1e3 * timed(func() { c.asg = c.prober.BuildAssignments(c.pops, s.PoPCoords(), c.camp) })
	return c, nil
}

// cacheprobe climbs the probing layer: the fixed stages, a pass with one
// worker and with one per CPU, a pass as three shards plus the gather,
// and a pass over a 10% subset the way a streamed hour runs it; then the
// Google front end underneath, one snoop at a time.
func (l *ladder) cacheprobe() error {
	ctx := context.Background()
	start := clockx.Epoch
	// Two passes each on two fresh systems: pass 0 fills the simulated
	// caches, so a worker count must be compared over the same passes.
	rate := func(c *calibrated) (float64, error) {
		before := c.camp.ProbesSent
		var err error
		s := timed(func() {
			for pass := 0; pass < 2 && err == nil; pass++ {
				_, err = c.prober.ProbePassDelta(ctx, c.pops, c.asg, pass, start, c.camp)
			}
		})
		return float64(c.camp.ProbesSent-before) / s, err
	}
	one, err := l.calibrate(1)
	if err != nil {
		return err
	}
	w1, err := rate(one)
	if err != nil {
		return err
	}
	all, err := l.calibrate(0)
	if err != nil {
		return err
	}
	l.set("cacheprobe.prescan_s", all.prescanS)
	l.set("cacheprobe.calibrate_s", all.calibrateS)
	l.set("cacheprobe.build_assignments_ms", all.assignMS)

	// The campaign codec, on the calibrated campaign as its checkpoint
	// holds it.
	data, _ := snapshot.Marshal(snapshot.Header{Kind: snapshot.KindCampaign, Version: snapshot.VersionCampaign},
		func(w *snapshot.Writer) { snapshot.EncodeCampaign(w, all.camp) })
	if err := l.codec("campaign", data, func(r *snapshot.Reader) error {
		_, err := snapshot.DecodeCampaign(r)
		return err
	}, func(w *snapshot.Writer) { snapshot.EncodeCampaign(w, all.camp) }); err != nil {
		return err
	}

	wN, err := rate(all)
	if err != nil {
		return err
	}
	l.set("cacheprobe.probe_pass_probes_per_s.w1", w1)
	l.set("cacheprobe.probe_pass_probes_per_s.wN", wN)
	l.set("cacheprobe.workers_speedup_x", wN/w1)

	const shards = 3
	parts := cacheprobe.PartitionPass(all.asg, 2, shards)
	results := make([]*cacheprobe.ShardResult, shards)
	shardS := timed(func() {
		for i := range results {
			results[i] = all.prober.ProbeShard(ctx, all.pops, all.asg, 2, start, all.camp, parts[i])
		}
	})
	var delta *cacheprobe.PassDelta
	gatherS := timed(func() { delta, err = all.prober.GatherPass(all.pops, all.asg, 2, start, all.camp, results) })
	if err != nil {
		return err
	}
	l.set("cacheprobe.probe_shard_probes_per_s", float64(delta.ProbesSent)/shardS)
	l.set("cacheprobe.gather_pass_ms", gatherS*1e3)

	data, _ = snapshot.Marshal(snapshot.Header{Kind: snapshot.KindCampaignDelta, Version: snapshot.VersionCampaignDelta},
		func(w *snapshot.Writer) { snapshot.EncodePassDelta(w, delta) })
	if err := l.codec("passdelta", data, func(r *snapshot.Reader) error {
		_, err := snapshot.DecodePassDelta(r)
		return err
	}, func(w *snapshot.Writer) { snapshot.EncodePassDelta(w, delta) }); err != nil {
		return err
	}

	sel := make([][]int, all.asg.NumPoPs())
	for pi := range sel {
		for ti := 0; ti < all.asg.NumTasks(pi); ti += 10 {
			sel[pi] = append(sel[pi], ti)
		}
	}
	sub := all.asg.Subset(sel)
	var subDelta *cacheprobe.PassDelta
	subS := timed(func() { subDelta, err = all.prober.ProbePassDelta(ctx, all.pops, sub, 3, start, all.camp) })
	if err != nil {
		return err
	}
	l.set("cacheprobe.probe_pass_delta_probes_per_s", float64(subDelta.ProbesSent)/subS)
	return l.gpdns(all)
}

// gpdns times single snoops (RD=0 with an ECS option) against the Google
// front end of a system that has been through the passes above, sorting
// each call by what came back: an answer with a scope is a hit.
func (l *ladder) gpdns(c *calibrated) error {
	g := c.sys.Google
	h := g.TCP()
	// The campaign's own tasks: each PoP's vantage asks about the scopes
	// assigned to it, as a pass does.
	type task struct {
		from   netx.Addr
		domain string
		scope  netx.Prefix
	}
	var tasks []task
	for pi := 0; pi < c.asg.NumPoPs() && len(tasks) < 1<<15; pi++ {
		v := c.pops[c.asg.PoPName(pi)]
		if v == nil {
			continue
		}
		for ti := 0; ti < c.asg.NumTasks(pi) && len(tasks) < 1<<15; ti++ {
			domain, scope := c.asg.TaskAt(pi, ti)
			tasks = append(tasks, task{v.Addr, domain, scope})
		}
	}
	if len(tasks) == 0 {
		return fmt.Errorf("the calibrated campaign assigned no probe tasks")
	}
	q0, hits0, _ := g.Stats()
	var q dnswire.Message
	ctx := context.Background()
	snoop := func(i int) (hit, answered bool) {
		// 50 probes a second of simulated time, the paper's rate, keeps
		// the front end's rate limiter out of the measurement.
		c.sys.Clock.Advance(20 * time.Millisecond)
		t := tasks[i%len(tasks)]
		q.SetQuery(uint16(i), t.domain, dnswire.TypeA).WithECS(t.scope)
		q.RecursionDesired = false
		resp := h.ServeDNS(ctx, t.from, &q)
		if resp == nil {
			return false, false
		}
		hit = len(resp.Answers) > 0 && resp.EDNS != nil && resp.EDNS.ECS != nil && resp.EDNS.ECS.ScopePrefixLen != 0
		dnswire.ReleaseMessage(resp)
		return hit, true
	}
	var hitNS, missNS, hits, misses float64
	for i := 0; i < 2*len(tasks); i++ {
		t0 := time.Now()
		hit, answered := snoop(i)
		ns := float64(time.Since(t0))
		switch {
		case !answered:
		case hit:
			hitNS += ns
			hits++
		default:
			missNS += ns
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		return fmt.Errorf("snoops did not see both outcomes (%v hits, %v misses)", hits, misses)
	}
	l.set("gpdns.snoop_hit_ns", hitNS/hits)
	l.set("gpdns.snoop_miss_ns", missNS/misses)
	i := 0
	l.set("gpdns.snoop_allocs", allocsPerOp(func() { snoop(i); i++ }))
	q1, hits1, _ := g.Stats()
	l.set("gpdns.cache_hit_ratio", float64(hits1-hits0)/float64(max(q1-q0, 1)))
	return nil
}

// ditl times the never-profiled DNS-logs chain as eval_medium pays for
// it, at medium scale: world generation, then the root-trace generator
// and the crawl over its output — the two halves of the one
// ditl-dnslogs stage.
func (l *ladder) ditl() error {
	scale := world.ScaleMedium
	if l.b.opts.smoke {
		scale = world.ScaleTiny
	}
	var err error
	l.set("world.generate_s", timed(func() {
		sink, err = world.Generate(world.Config{Seed: l.seed, Scale: scale, Params: world.DefaultParams()})
	}))
	if err != nil {
		return err
	}
	s, err := sim.New(sim.Config{Seed: l.seed, Scale: scale})
	if err != nil {
		return err
	}
	dir := l.b.tmp("ladder-ditl")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := func(letter string) string { return filepath.Join(dir, "root-"+letter+".ditl") }
	def := experiments.DefaultConfig(l.seed, scale)
	var gen roots.Stats
	genS := timed(func() {
		gen, err = roots.NewGenerator(s.Model).Generate(roots.GenConfig{
			Start:            clockx.Epoch.Add(def.CampaignDuration - def.TraceDuration),
			Duration:         def.TraceDuration,
			PerSourceHourCap: def.PerSourceHourCap,
		}, func(letter string) (io.WriteCloser, error) { return os.Create(path(letter)) })
	})
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(dir, "root-*.ditl"))
	if err != nil {
		return err
	}
	var bytes int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return err
		}
		bytes += st.Size()
	}
	l.set("roots.generate_s", genS)
	l.set("roots.generate_mb_per_s", float64(bytes)/1e6/genS)
	crawlS := timed(func() {
		sink, err = dnslogs.Crawl(dnslogs.Config{}, func(letter string) (io.ReadCloser, error) { return os.Open(path(letter)) })
	})
	if err != nil {
		return err
	}
	l.set("dnslogs.crawl_s", crawlS)
	l.set("dnslogs.crawl_queries_per_s", float64(gen.Records)/crawlS)
	return nil
}

// statefs times the durable write path every checkpoint takes (temp
// file, fsync, rename, directory fsync) at two sizes, a read, and a
// consistency scan and repair of the workload's own finished state
// directory.
func (l *ladder) statefs() error {
	disk := statefs.Disk{}
	dir := l.b.tmp("ladder-statefs")
	var err error
	note := func(e error) {
		if e != nil {
			err = e
		}
	}
	small, large := make([]byte, 4<<10), make([]byte, 2<<20)
	l.set("statefs.write_atomic_ms.4k", perOp(10, func(i int) { note(disk.WriteAtomic(filepath.Join(dir, "4k.snap"), small)) })/1e6)
	l.set("statefs.write_atomic_ms.2m", perOp(5, func(i int) { note(disk.WriteAtomic(filepath.Join(dir, "2m.snap"), large)) })/1e6)
	l.set("statefs.read_file_ms.2m", perOp(10, func(i int) {
		b, e := disk.ReadFile(filepath.Join(dir, "2m.snap"))
		sink = b
		note(e)
	})/1e6)
	if err != nil {
		return err
	}
	l.set("statefsck.scan_ms", perOp(2, func(int) {
		_, e := statefsck.Scan(disk, l.in.stateDir, statefsck.Options{})
		note(e)
	})/1e6)
	l.set("statefsck.repair_ms", perOp(2, func(int) {
		rep, e := statefsck.Repair(disk, l.in.stateDir, statefsck.Options{})
		note(e)
		if e == nil && rep.Problems() > 0 {
			note(fmt.Errorf("finished state dir is not clean: %s", rep.Summary()))
		}
	})/1e6)
	return err
}

// serveLayers times the serving path without sockets, through a daemon
// with no listeners: index, cache, the two handlers on their hit and
// miss paths, the limiter, and a reload onto a changed artifact.
func (l *ladder) serveLayers() error {
	cm := l.in.cm
	data, hash := serve.Marshal(cm)
	if err := l.codec("clientmap", data, func(r *snapshot.Reader) error {
		_, err := serve.DecodeClientMap(r)
		return err
	}, func(w *snapshot.Writer) { serve.EncodeClientMap(w, cm) }); err != nil {
		return err
	}
	l.set("serve.index_build_ms", perOp(3, func(int) { sink = serve.NewIndex(cm, 0, hash) })/1e6)

	// Lookups: over the hot mix's targets, and over the announced space
	// uniformly, as the cold mix draws them.
	ix := l.in.ix
	hot, err := buildPlan(cm, ix, mixHot, randx.Seed(l.b.opts.seed))
	if err != nil {
		return err
	}
	ann := newAnnounced24s(cm)
	rng := randx.Seed(l.b.opts.seed).New("bench/ladder/cold")
	cold := make([]netx.Slash24, 1<<16)
	for i := range cold {
		cold[i] = ann.at(rng.Intn(ann.total()))
	}
	l.set("serve.index_lookup24_ns.hot", perOp(1<<18, func(i int) { sink = ix.Lookup24(hot.targets[i%hot.len()].addr.Slash24()) }))
	l.set("serve.index_lookup24_ns.cold", perOp(1<<18, func(i int) { sink = ix.Lookup24(cold[i%len(cold)]) }))
	asns := ix.SortedASNs()
	if len(asns) == 0 {
		return fmt.Errorf("artifact has no active AS to look up")
	}
	l.set("serve.lookup_as_ns", perOp(1<<18, func(i int) { sink, _ = ix.LookupAS(asns[i%len(asns)]) }))

	// The response cache at capacity: gets that hit, puts that evict.
	cache := serve.NewCache[[]byte](16, 4096)
	keys := make([]string, 3*cacheSlots)
	for i := range keys {
		keys[i] = fmt.Sprintf("d|1|%d.bench.clientmap", i)
	}
	body := make([]byte, 64)
	for _, k := range keys[:cacheSlots] {
		cache.Put(1, k, body)
	}
	l.set("serve.cache_get_ns", perOp(cacheSlots, func(i int) { sink, _ = cache.Get(1, keys[i]) }))
	next := cacheSlots
	l.set("serve.cache_put_ns", perOp(cacheSlots/2, func(int) {
		cache.Put(1, keys[next%len(keys)], body)
		next++
	}))

	// The handlers. A hit asks one of 1024 names again; a miss asks a name
	// the daemon has not seen, from the announced space.
	newDaemon := func() (*serve.Daemon, error) {
		d := serve.NewDaemon(serve.Config{ArtifactPath: l.in.artifact, RateLimit: serve.LimiterConfig{Rate: -1}})
		return d, d.Start()
	}
	d, err := newDaemon()
	if err != nil {
		return err
	}
	defer d.Close()
	from := netx.AddrFrom4(127, 0, 0, 1)
	ctx := context.Background()
	const names = 1024
	hits := make([]*dnswire.Message, names)
	hitReqs := make([]*http.Request, names)
	for i := range hits {
		if hits[i], err = dnswire.Unmarshal(hot.dnsQuery(i)); err != nil {
			return err
		}
		hitReqs[i] = httptest.NewRequest(http.MethodGet, "/v1/ip/"+hot.targets[i].addr.String(), nil)
	}
	misses := make([]*dnswire.Message, len(cold))
	missReqs := make([]*http.Request, len(cold))
	for i, s24 := range cold {
		a := s24.AddrAt(byte(i))
		misses[i] = dnswire.NewQuery(uint16(i), serve.FormatReverseName(a, serve.DefaultZone), dnswire.TypeA)
		missReqs[i] = httptest.NewRequest(http.MethodGet, "/v1/ip/"+a.String(), nil)
	}
	dns, web := d.DNSHandler(), d.HTTPHandler()
	dnsHit := func(i int) { sink = dns.ServeDNS(ctx, from, hits[i%names]) }
	webHit := func(i int) { web.ServeHTTP(httptest.NewRecorder(), hitReqs[i%names]) }
	for i := 0; i < names; i++ { // fill the cache
		dnsHit(i)
		webHit(i)
	}
	// Each miss batch is one pass over names never asked before, so a
	// fresh daemon serves each of the three batches perOp takes.
	missBatch := len(cold) / 4
	at := 0
	dnsMiss := func(int) { sink = dns.ServeDNS(ctx, from, misses[at%len(misses)]); at++ }
	webMiss := func(int) { web.ServeHTTP(httptest.NewRecorder(), missReqs[at%len(missReqs)]); at++ }
	l.set("serve.dns_handler_ns.hit", perOp(1<<17, dnsHit))
	l.set("serve.http_handler_ns.hit", perOp(1<<15, webHit))
	i := 0
	l.set("serve.dns_handler_allocs.hit", allocsPerOp(func() { dnsHit(i); i++ }))
	l.set("serve.http_handler_allocs.hit", allocsPerOp(func() { webHit(i); i++ }))
	l.set("serve.dns_handler_ns.miss", perOp(missBatch, dnsMiss))
	l.set("serve.dns_handler_allocs.miss", allocsPerOp(func() { dnsMiss(0) }))
	at = 0
	l.set("serve.http_handler_ns.miss", perOp(missBatch, webMiss))
	l.set("serve.http_handler_allocs.miss", allocsPerOp(func() { webMiss(0) }))

	lim := serve.NewLimiter(serve.LimiterConfig{Rate: 1e9})
	l.set("serve.limiter_allow_ns", perOp(1<<18, func(i int) { sink = lim.Allow(netx.Addr(0x0a000000 + uint32(i%4096))) }))

	// Reload: the daemon's artifact file replaced by a map that differs,
	// then by the original again, so every reload swaps.
	changed := *cm
	changed.Meta.Source = cm.Meta.Source + " (ladder reload)"
	variants := [][]byte{nil, data}
	variants[0], _ = serve.Marshal(&changed)
	path := l.b.tmp("ladder-reload.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	rd := serve.NewDaemon(serve.Config{ArtifactPath: path, RateLimit: serve.LimiterConfig{Rate: -1}})
	if err := rd.Start(); err != nil {
		return err
	}
	defer rd.Close()
	var reloadS []float64
	for i := 0; i < 4; i++ {
		if err := os.WriteFile(path, variants[i%2], 0o644); err != nil {
			return err
		}
		var swapped bool
		reloadS = append(reloadS, timed(func() { swapped, err = rd.Reload() }))
		if err != nil {
			return err
		}
		if !swapped {
			return fmt.Errorf("reload onto a changed artifact did not swap")
		}
	}
	l.set("serve.reload_ms", best(reloadS, false)*1e3)
	return nil
}

// checkSpans verifies the trace's shape: every span but the roots has a
// parent that exists, and no span's children cover more than the span.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			return fmt.Errorf("span %d (%s) has parent %d, which is not in the trace", s.ID, s.Name, s.Parent)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < -1e-6 {
			return fmt.Errorf("span %d (%s) has negative self time %.6fs", id, byID[id].Name, self)
		}
	}
	return nil
}
