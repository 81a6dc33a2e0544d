package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"clientmap/internal/randx"
	"clientmap/internal/serve"
)

// Every workload is the system's whole purpose run once: produce the
// client-activity map (a batch evaluation or a streaming campaign),
// export it, and serve it from the real clientmapd under load. The four
// differ in which half is full-size and in the query mix, so each puts a
// different layer on the critical path, and every end-to-end metric is a
// real measurement on every one of them.
type workload struct {
	name string
	why  string
	// produce is the kind of the produce leg ("eval" or "stream") at the
	// given world scale. It runs fresh `runs` times and resumed `resumes`
	// times; the best of each is reported (see best).
	produce string
	scale   string
	hours   int
	runs    int
	resumes int
	mix     mix
	// rssOfDaemon selects which process peak_rss_mb describes: the
	// daemon for the serve workloads, the produce child otherwise.
	rssOfDaemon bool
}

var workloads = []workload{
	{
		name:    "eval_medium",
		why:     "Full medium evaluation, the run an operator waits on: the probe chain is its critical path, so probing, parallelism and checkpoint changes show here; its map is then served with the hot mix.",
		produce: "eval", scale: "medium", runs: 1, resumes: 1, mix: mixHot,
	},
	{
		name:    "stream_small_24h",
		why:     "24 streamed hours over a churning small world with faults and retries: per-hour overhead (churn, decay, scheduler, hour checkpoints, rolling export), not the probe hot loop, sets its pace.",
		produce: "stream", scale: "small", hours: 24, runs: 1, resumes: 1, mix: mixHot,
	},
	{
		name:    "serve_hot",
		why:     "clientmapd answering names that all fit its response cache, over the map a small evaluation produced: socket, decode, hash+mutex+map, encode, which is the cache-hit path.",
		produce: "eval", scale: "small", runs: 2, resumes: 2, mix: mixHot, rssOfDaemon: true,
	},
	{
		name:    "serve_cold",
		why:     "clientmapd answering names that hardly ever repeat: index lookup, answer build, cache insert and evict, which is the cache-miss path; deleting the cache should help here, a bigger one should not.",
		produce: "eval", scale: "small", runs: 2, resumes: 2, mix: mixCold, rssOfDaemon: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line inputs of one benchmark process.
type options struct {
	seed      uint64
	worldSeed uint64
	seconds   int
	trace     bool
	// smoke shrinks every world to tiny and the stream to 6 hours, for
	// the benchmark's own tests.
	smoke bool
}

// bench is one benchmark process: its options, the places it may write,
// and the children it owns.
type bench struct {
	opts     options
	self     string // this executable, for re-exec
	root     string // the checkout (where go.mod of the code under test is)
	buildDir string // root/.bench_build
	procs    *procs
	ids      atomic.Int64
}

func (b *bench) nextID() int64 { return b.ids.Add(1) }

func (b *bench) tmp(name string) string { return filepath.Join(b.procs.tmpRoot, name) }

// report is what one workload run produced.
type report struct {
	workload string
	// e2e holds every end-to-end figure of the run, bounded or not;
	// layers, in a traced run, everything the per_layer list names.
	e2e       map[string]float64
	layers    map[string]float64
	info      map[string]float64 // shown beside the metrics, not part of the contract
	attempted int64
	failed    int64
	// problems are wrong outputs: the run is not correct. gates are
	// validity limits the host or the generator did not keep: the outputs
	// are right but the numbers should not be cited.
	problems []string
	gates    []string
	// resultHash covers the deterministic outputs, so a behaviour change
	// between two commits is visible.
	resultHash string
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) gatef(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// best returns the best of several repetitions of one measurement: the
// lowest when lower is better, else the highest. Whatever else runs on
// the host only ever slows a repetition down, so the best one is the
// nearest to what the program itself costs.
func best(xs []float64, higherIsBetter bool) float64 {
	out := xs[0]
	for _, x := range xs[1:] {
		if (x > out) == higherIsBetter {
			out = x
		}
	}
	return out
}

// setupTimer accumulates set-up time: each part is run several times and
// its median counted, so one slow fork or cold cache line does not
// become the run's set-up figure.
type setupTimer struct {
	total float64
}

const setupRepeats = 3

func (s *setupTimer) measure(f func() error) error {
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	s.total += median(times)
	return nil
}

// buildDaemon compiles cmd/clientmapd from the checkout's source into the
// build directory (a no-op for the toolchain when nothing changed).
func (b *bench) buildDaemon() (string, error) {
	out := filepath.Join(b.buildDir, "clientmapd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/clientmapd")
	cmd.Dir = b.root
	cmd.Stderr = os.Stderr
	if err := b.procs.start(cmd); err != nil {
		return "", err
	}
	if err := b.procs.wait(cmd); err != nil {
		return "", fmt.Errorf("go build ./cmd/clientmapd: %w", err)
	}
	return out, nil
}

func (b *bench) run(w workload) (*report, error) {
	scale, hours := w.scale, w.hours
	if b.opts.smoke {
		scale = "tiny"
		if hours > 0 {
			hours = 6
		}
	}
	rep := &report{workload: w.name, e2e: map[string]float64{}, info: map[string]float64{}}
	var tr *tracer
	if b.opts.trace {
		tr = newTracer(fmt.Sprintf("%s/seed=%d", w.name, b.opts.seed))
		rep.layers = map[string]float64{}
	}
	root, endRoot := tr.begin(w.name, 0)
	stateDir := func(i int) string { return b.tmp(fmt.Sprintf("state-%d", i)) }

	// ---- set-up, first part: the program under test and its state dirs.
	var setup setupTimer
	var daemonBin string
	_, endSetup := tr.begin("setup", root)
	err := setup.measure(func() error {
		var err error
		if daemonBin, err = b.buildDaemon(); err != nil {
			return err
		}
		for i := 0; i < w.runs; i++ {
			if err := os.RemoveAll(stateDir(i)); err != nil {
				return err
			}
			if err := os.MkdirAll(stateDir(i), 0o755); err != nil {
				return err
			}
		}
		return nil
	})
	endSetup()
	if err != nil {
		return nil, err
	}

	// ---- produce leg.
	produceID, endProduce := tr.begin("produce", root)
	artifact := b.tmp("clientmap.snap")
	spec := childSpec{Kind: w.produce, Scale: scale, WorldSeed: b.opts.worldSeed, Hours: hours, Artifact: artifact}
	var fresh, resumed []*produced
	for i := 0; i < w.runs; i++ {
		id, end := tr.begin(fmt.Sprintf("%s-run-%d", w.produce, i), produceID)
		spec.StateDir = stateDir(i)
		p, err := b.runChild(spec)
		end()
		if err != nil {
			return nil, err
		}
		began := tr.offset(p.StartedAt)
		for _, s := range p.Stages {
			tr.add("stage/"+s.Name, id, began+s.Start, began+s.End)
		}
		fresh = append(fresh, p)
	}
	spec.Resume = true
	for i := 0; i < w.resumes; i++ {
		_, end := tr.begin(fmt.Sprintf("%s-resume-%d", w.produce, i), produceID)
		p, err := b.runChild(spec)
		end()
		if err != nil {
			return nil, err
		}
		resumed = append(resumed, p)
	}
	endProduce()
	produceMetrics(w, rep, fresh, resumed)

	// ---- set-up, second part: the benchmark's own copy of the artifact,
	// its index, and the query plan with the expected answers.
	var cm *serve.ClientMap
	var ix *serve.Index
	var pl *plan
	_, endPlan := tr.begin("setup", root)
	err = setup.measure(func() error {
		var hash string
		var err error
		if cm, hash, err = serve.ReadFile(artifact); err != nil {
			return err
		}
		if err := cm.Validate(); err != nil {
			return err
		}
		ix = serve.NewIndex(cm, 0, hash)
		pl, err = buildPlan(cm, ix, w.mix, randx.Seed(b.opts.seed))
		return err
	})
	endPlan()
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup.total

	// ---- serve leg.
	sv, err := b.serveLeg(w, rep, tr, root, daemonBin, artifact, pl)
	if err != nil {
		return nil, err
	}
	endRoot()

	rep.resultHash = hashOutputs([]byte(fresh[0].OutputHash), pl.dns, pl.http)[:16]

	if b.opts.trace {
		if err := b.ladder(w, rep, tr, ladderInputs{
			stages: fresh[0].Stages, stateDir: stateDir(0), produce: w.produce,
			cm: cm, ix: ix, plan: pl, artifact: artifact, serve: sv,
		}); err != nil {
			return nil, err
		}
		path := filepath.Join(b.buildDir, "trace-"+w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		if err := checkSpans(tr.spans); err != nil {
			rep.problemf("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	return rep, nil
}

// produceMetrics fills the produce leg's end-to-end metrics and checks
// that the fresh runs agree with each other and with the resumed ones.
func produceMetrics(w workload, rep *report, fresh, resumed []*produced) {
	// The step between two checkpoints: a probing pass, or a streamed hour.
	step := "probe-pass-"
	if w.produce == "stream" {
		step = "stream-hour-"
	}
	var wall, cpu, rate, rss, slowest, resume []float64
	for i, p := range fresh {
		wall = append(wall, p.WallS)
		cpu = append(cpu, p.cpuS)
		rate = append(rate, float64(p.Probes)/p.WallS)
		rss = append(rss, p.PeakRSSMiB)
		steps := indexStages(p.Stages).withPrefix(step)
		if len(steps) == 0 {
			rep.problemf("%s run %d: no %s<k> stage yielded a span", w.produce, i, step)
		}
		worst := 0.0
		for _, s := range steps {
			worst = max(worst, s.seconds()*1e3)
		}
		slowest = append(slowest, worst)
		rep.attempted += p.Probes + int64(len(p.Stages))
		if p.OutputHash != fresh[0].OutputHash {
			rep.problemf("%s run %d produced outputs %.12s, run 0 produced %.12s", w.produce, i, p.OutputHash, fresh[0].OutputHash)
		}
	}
	for i, p := range resumed {
		resume = append(resume, p.WallS)
		rep.attempted += int64(len(p.Stages))
		if p.OutputHash != fresh[0].OutputHash {
			rep.problemf("resumed %s %d produced outputs %.12s, the fresh run %.12s", w.produce, i, p.OutputHash, fresh[0].OutputHash)
		}
		for _, s := range p.Stages {
			if !s.Restored && strings.HasPrefix(s.Name, step) {
				rep.problemf("resumed %s %d re-ran %s instead of restoring it", w.produce, i, s.Name)
			}
		}
	}
	rep.e2e["wall_s"] = best(wall, false)
	rep.e2e["cpu_s"] = best(cpu, false)
	rep.e2e["probes_per_s"] = best(rate, true)
	rep.e2e["resume_s"] = best(resume, false)
	rep.e2e["hour_max_ms"] = best(slowest, false)
	if !w.rssOfDaemon {
		rep.e2e["peak_rss_mb"] = median(rss)
	}
	rep.info["probes"] = float64(fresh[0].Probes)
}
