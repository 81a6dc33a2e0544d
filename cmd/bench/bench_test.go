package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/experiments"
	"clientmap/internal/randx"
	"clientmap/internal/serve"
	"clientmap/internal/world"
)

// tinyRun is one tiny-scale evaluation shared by the tests that need a
// real artifact or real pipeline log lines.
var tinyRun = sync.OnceValue(func() (out struct {
	cm    *serve.ClientMap
	ix    *serve.Index
	lines []string
	err   error
}) {
	cfg := experiments.DefaultConfig(randx.Seed(2021), world.ScaleTiny)
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		out.err = err
		return out
	}
	defer os.RemoveAll(dir)
	cfg.StateDir = dir
	var mu sync.Mutex
	cfg.Log = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		out.lines = append(out.lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
	}
	r, err := experiments.Run(cfg)
	if err != nil {
		out.err = err
		return out
	}
	out.cm = r.ClientMap()
	_, hash := serve.Marshal(out.cm)
	out.ix = serve.NewIndex(out.cm, 0, hash)
	return out
})

func tinyPlan(t *testing.T, m mix, seed uint64) *plan {
	t.Helper()
	run := tinyRun()
	if run.err != nil {
		t.Fatal(run.err)
	}
	p, err := buildPlan(run.cm, run.ix, m, randx.Seed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlansAreDeterministic(t *testing.T) {
	for _, m := range []mix{mixHot, mixCold} {
		a, b, c := tinyPlan(t, m, 7), tinyPlan(t, m, 7), tinyPlan(t, m, 8)
		if !bytes.Equal(a.dns, b.dns) || !bytes.Equal(a.http, b.http) {
			t.Errorf("%s: the same seed gave different plans", m)
		}
		if bytes.Equal(a.dns, c.dns) {
			t.Errorf("%s: different seeds gave the same plan", m)
		}
	}
}

func TestPlanWorkingSets(t *testing.T) {
	hot, cold := tinyPlan(t, mixHot, 1), tinyPlan(t, mixCold, 1)
	if n := len(hot.firstDNS); n > cacheSlots {
		t.Errorf("hot plan asks %d distinct DNS names, more than the cache's %d slots", n, cacheSlots)
	}
	if n := len(hot.firstHTTP); n > cacheSlots {
		t.Errorf("hot plan asks %d distinct HTTP paths, more than the cache's %d slots", n, cacheSlots)
	}
	if cold.nameSpace < 10*cacheSlots {
		t.Errorf("cold mix draws from %d names, under ten times the cache's %d slots", cold.nameSpace, cacheSlots)
	}
	// A cold name must be out of the cache before it comes round again.
	if cold.len() < 4*cacheSlots {
		t.Errorf("cold plan holds %d queries, under four times the cache's %d slots", cold.len(), cacheSlots)
	}
	// At tiny scale the announced space is small, so only bound the
	// repeats the plan's own length forces.
	want := int(0.6 * math.Min(float64(cold.len()), float64(cold.nameSpace)))
	if n := len(cold.firstDNS); n < want {
		t.Errorf("cold plan has only %d distinct names among %d queries over %d names", n, cold.len(), cold.nameSpace)
	}
	for _, p := range []*plan{hot, cold} {
		for i := 0; i < p.len(); i += 997 {
			q, err := dnswire.Unmarshal(p.dnsQuery(i))
			if err != nil {
				t.Fatalf("%s query %d does not decode: %v", p.mix, i, err)
			}
			if want := serve.FormatReverseName(p.targets[i].addr, serve.DefaultZone); q.Question().Name != want {
				t.Fatalf("%s query %d asks %q, target is %q", p.mix, i, q.Question().Name, want)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestMedianAndQuietHalf(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{100, 10, 90, 20, 80, 30}
	if got := quietHalf(xs, true); got != 90 {
		t.Errorf("quietHalf higher = %v, want 90", got)
	}
	if got := quietHalf(xs, false); got != 20 {
		t.Errorf("quietHalf lower = %v, want 20", got)
	}
	c := newSliceCounter(3)
	c.counts = []int64{100, 300, 200}
	if got := median(c.rates(0.5)); got != 400 {
		t.Errorf("median slice rate = %v, want 400", got)
	}
	// One window with a stall in it must not move the quiet tail.
	calm := make([]int64, 100)
	for i := range calm {
		calm[i] = int64(1000 * (i + 1)) // 1..100 µs
	}
	stalled := append([]int64(nil), calm...)
	for i := 90; i < 100; i++ {
		stalled[i] = 5e6
	}
	w := latencyWindows{calm, stalled, calm, calm}
	if got := w.quietUS(99)[0]; got != 99 {
		t.Errorf("quiet p99 = %v µs, want 99", got)
	}
	if got := (latencyWindows{stalled, stalled, stalled}).quietUS(99)[0]; got != 5000 {
		t.Errorf("a stall in every window must show: p99 = %v µs, want 5000", got)
	}
}

// udpEcho is an in-process stub that sends every datagram back.
func udpEcho(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			pc.WriteTo(buf[:n], from)
		}
	}()
	return pc.LocalAddr().String()
}

func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	p := tinyPlan(t, mixHot, 3)
	const rate, secs = 2000, 1
	res, err := openLoopDNS(udpEcho(t), p, rate, secs*time.Second, 0, 4, wantSameBytes, placement{})
	if err != nil {
		t.Fatal(err)
	}
	if res.sent != rate*secs || res.failed != 0 || res.wrong != 0 {
		t.Fatalf("sent %d (want %d), failed %d, wrong %d", res.sent, rate*secs, res.failed, res.wrong)
	}
	if res.wallS < 0.99*secs || res.wallS > 1.5*secs {
		t.Errorf("%d queries at %d/s took %.3fs", res.sent, rate, res.wallS)
	}
	late := append([]int64(nil), res.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if med := late[len(late)/2]; med < 0 || med > int64(200*time.Microsecond) {
		t.Errorf("median send was %v late", time.Duration(med))
	}
	if got := res.lat.samples(); got != rate*secs {
		t.Errorf("%d latency samples, want %d", got, rate*secs)
	}
}

// TestServeCheckBites plants a wrong expected answer and requires the
// checker to count it, over real sockets against a real daemon.
func TestServeCheckBites(t *testing.T) {
	run := tinyRun()
	if run.err != nil {
		t.Fatal(run.err)
	}
	dir := t.TempDir()
	artifact := filepath.Join(dir, "map.snap")
	if _, err := serve.WriteFile(artifact, run.cm); err != nil {
		t.Fatal(err)
	}
	d := serve.NewDaemon(serve.Config{ArtifactPath: artifact, DNSAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", RateLimit: serve.LimiterConfig{Rate: -1}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p := tinyPlan(t, mixHot, 5)
	drive := func(dial func() (pipe, error)) *phaseResult {
		t.Helper()
		res, err := loop{name: "check", workers: 1, limit: 2000, dial: dial, index: func(k int) int { return k }}.run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dns := func() (pipe, error) { return dialDNS(d.DNSUDPAddr(), p, wantPlanAnswer) }
	web := func() (pipe, error) { return dialHTTP(d.HTTPAddr(), p) }
	for name, dial := range map[string]func() (pipe, error){"dns": dns, "http": web} {
		if res := drive(dial); res.wrong != 0 || res.failed != 0 {
			t.Fatalf("%s: honest plan: %d wrong, %d failed of %d", name, res.wrong, res.failed, res.sent)
		}
	}
	for i := 0; i < 2000; i += 100 {
		p.targets[i].active = !p.targets[i].active
		p.httpActive[i] = !p.httpActive[i]
	}
	for name, dial := range map[string]func() (pipe, error){"dns": dns, "http": web} {
		if res := drive(dial); res.wrong != 20 {
			t.Errorf("%s: 20 planted wrong answers, checker counted %d", name, res.wrong)
		}
	}
	rep := &report{}
	rep.account("planted", &phaseResult{sent: 10, wrong: 1})
	if rep.correct() {
		t.Error("a wrong answer left the run correct")
	}
}

func TestStageLinesOfTheCurrentPipeline(t *testing.T) {
	run := tinyRun()
	if run.err != nil {
		t.Fatal(run.err)
	}
	log := newStageLog()
	for i, line := range run.lines {
		log.observe(float64(i), line)
	}
	ix := indexStages(log.result())
	for _, name := range []string{"world", "campaign-setup", "scope-prescan", "calibration", "probe-pass-0", "probe-pass-8", "ditl-dnslogs", "baselines", "dataset-views"} {
		s, err := ix.need(name)
		if err != nil {
			t.Error(err)
			continue
		}
		if s.End < s.Start {
			t.Errorf("stage %s ends before it starts", name)
		}
	}
	if s := ix["probe-pass-3"]; s.CkptBytes == 0 {
		t.Errorf("probe-pass-3 checkpointed, but the parser saw no size: %+v", s)
	}
	if s := ix["campaign-setup"]; s.CkptBytes != 0 {
		t.Errorf("campaign-setup is ephemeral, but the parser saw a checkpoint: %+v", s)
	}
	if got := len(ix.withPrefix("probe-pass-")); got != 9 {
		t.Errorf("%d probe-pass stages, want 9", got)
	}
	if _, err := ix.need("no-such-stage"); err == nil {
		t.Error("a missing stage must be an error, not a zero")
	}

	// The restored form, as a resumed run logs it.
	l := newStageLog()
	l.observe(2, "stage probe-pass-3: restored checkpoint (2029678 bytes in 12ms, fingerprint 221a3f6f37b2) — skipped")
	l.observe(3, "stage world: running (fingerprint e4e15f098672)")
	l.observe(4, "stage world: done in 134ms")
	l.observe(5, "stage calibration: running (fingerprint 2fa8ac56f8ec)")
	l.observe(7, "stage calibration: done in 1.571s, checkpointed 1251758 bytes in 14ms")
	got := indexStages(l.result())
	if s := got["probe-pass-3"]; !s.Restored || s.CkptBytes != 2029678 {
		t.Errorf("restored line parsed as %+v", s)
	}
	if s := got["world"]; s.Start != 3 || s.End != 4 || s.CkptBytes != 0 {
		t.Errorf("ephemeral stage parsed as %+v", s)
	}
	if s := got["calibration"]; s.seconds() != 2 || s.CkptBytes != 1251758 || s.CkptMS != 14 {
		t.Errorf("checkpointed stage parsed as %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6}, // overlaps a
		{ID: 4, Parent: 2, Name: "a1", Start: 1, End: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 5, 2: 2, 3: 3, 4: 1} {
		if got := self[id]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, got, want)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	if err := checkSpans(append(spans, span{ID: 5, Parent: 99, Name: "orphan"})); err == nil {
		t.Error("a span whose parent is missing must fail the check")
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s (%s): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("%s (%s): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload %s: bad or repeated name", w.name)
		}
		seen[w.name] = true
	}
}

// TestSmoke runs the whole benchmark as the driver does — the built
// binary, one workload per invocation, untraced and traced — at tiny
// scale with one-second phases, and requires every metric BENCHMARK.json
// names to be printed exactly once with its unit, in the human-readable
// lines and in the JSON last line alike.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clientmapd eight times")
	}
	bj := readBenchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	line := regexp.MustCompile(`(?m)^  (\S+)\s+(-?[0-9.eE+-]+) (\S+)$`)
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "11", "--seconds", "1", "--trace", trace, "-smoke")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s\n%s", w.Name, trace, err, stdout.String(), stderr.String())
			}
			out := strings.TrimSpace(stdout.String())
			last := out[strings.LastIndexByte(out, '\n')+1:]
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v\n%s", w.Name, trace, err, last)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the result, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			printed := map[string]int{}
			for _, m := range line.FindAllStringSubmatch(out, -1) {
				if unit, ok := want[m[1]]; ok {
					printed[m[1]]++
					if m[3] != unit {
						t.Errorf("%s trace=%s: %s printed with unit %q, want %q", w.Name, trace, m[1], m[3], unit)
					}
				}
			}
			for name, unit := range want {
				if printed[name] != 1 {
					t.Errorf("%s trace=%s: %s printed %d times, want once", w.Name, trace, name, printed[name])
				}
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: result has %s as %+v, want unit %q", w.Name, trace, name, got, unit)
				}
				if trace == "0" && (got.Value <= 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0)) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, got.Value)
				}
			}
		}
	}
}
