// Command bench is the repository's one committed benchmark.
//
//	go run -C cmd/bench .                        # the four workloads, end-to-end metrics
//	go run -C cmd/bench . -trace 1               # the traced run: per-layer metrics and spans
//	go run -C cmd/bench . -selfcheck             # the suite twice; fails if they disagree
//	go run -C cmd/bench . -workload serve_hot    # one workload, result as a JSON last line
//
// See README.md beside this file for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as a JSON last line (default: all four)")
		seed         = flag.Uint64("seed", 2021, "workload seed: generates the query plans")
		seconds      = flag.Int("seconds", defaultSeconds, "how long the serve leg measures")
		trace        = flag.Int("trace", 0, "1: the traced run — spans on, per-layer metrics out")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced suite twice and fail if any end-to-end metric moves by more than its bound")
		worldSeed    = flag.Uint64("world-seed", defaultWorldSeed, "seed of the simulated worlds; part of the workloads' definition, change it only to check a claim on an unseen world")
		smoke        = flag.Bool("smoke", false, "tiny worlds and a 6-hour stream, for the benchmark's own tests")
		child        = flag.String("child", "", "internal: run the produce child described by this spec file")
		echo         = flag.Bool("echo", false, "internal: run the UDP echo stub")
		canned       = flag.Bool("canned", false, "internal: with -echo, answer through dnsnet.Server with an empty reply")
		contract     = flag.Bool("benchmark-json", false, "print BENCHMARK.json as this program defines it, and exit")
	)
	flag.Parse()
	if *contract {
		fmt.Println(benchmarkContract())
		return
	}
	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if *echo {
		fmt.Fprintln(os.Stderr, "bench echo:", echoMain(*canned))
		os.Exit(1)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}

	b, err := newBench(options{seed: *seed, worldSeed: *worldSeed, seconds: *seconds, trace: *trace == 1, smoke: *smoke})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	code := b.main(*workloadName, *selfcheck)
	b.procs.cleanup()
	os.Exit(code)
}

const (
	defaultSeconds   = 6
	defaultWorldSeed = 2021
)

// newBench locates the checkout and prepares the one temp root.
func newBench(opts options) (*bench, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b := &bench{
		opts:     opts,
		self:     self,
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		procs:    newProcs(),
	}
	b.procs.onSignal()
	if err := b.procs.mkTempRoot(b.buildDir); err != nil {
		return nil, err
	}
	return b, nil
}

// findRoot walks up from the working directory to the go.mod of the
// module under test.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && declaresModule(data, "clientmap") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			wd, _ := os.Getwd()
			return "", fmt.Errorf("no go.mod of module clientmap at or above %s: run the benchmark from a checkout", wd)
		}
		dir = parent
	}
}

func declaresModule(gomod []byte, name string) bool {
	for _, line := range strings.Split(string(gomod), "\n") {
		if strings.TrimSpace(line) == "module "+name {
			return true
		}
	}
	return false
}

// main runs the requested mode and returns the exit code.
func (b *bench) main(workloadName string, selfcheck bool) int {
	host, _ := json.Marshal(describeHost(b.root))
	fmt.Printf("host %s\n", host)

	if workloadName != "" {
		w, ok := workloadByName(workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workloadName)
			return 2
		}
		rep, err := b.run(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.print(b.opts.trace)
		// The machine-readable result is the last line of standard output.
		// A validity gate the host did not keep is printed above, not
		// turned into a failure: this mode is run by the hundred, and one
		// neighbour's burst must not read as a broken benchmark.
		fmt.Println(rep.json(b.opts.trace))
		if !rep.correct() {
			return 1
		}
		return 0
	}

	first, ok := b.suite()
	if !ok {
		return 1
	}
	if !selfcheck {
		return 0
	}
	second, ok := b.suite()
	if !ok {
		return 1
	}
	if !compareRuns(first, second) {
		return 1
	}
	return 0
}

// suite runs every workload and reports whether all were correct.
func (b *bench) suite() (map[string]*report, bool) {
	out := make(map[string]*report)
	ok := true
	for _, w := range workloads {
		rep, err := b.run(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return nil, false
		}
		rep.print(b.opts.trace)
		out[w.name] = rep
		ok = ok && rep.correct() && len(rep.gates) == 0
	}
	return out, ok
}

// print writes every metric by name with its unit, then the run's
// context figures and anything found wrong.
func (r *report) print(traced bool) {
	fmt.Printf("\nworkload %s  result_hash=%s  attempted=%d failed=%d\n", r.workload, r.resultHash, r.attempted, r.failed)
	row := func(m metricDef, v float64) { fmt.Printf("  %-42s %14.4f %s\n", m.Name, v, m.Unit) }
	for _, m := range endToEnd {
		row(m, r.e2e[m.Name])
	}
	fmt.Println(" without a bound:")
	for _, m := range perLayer[:unbounded] {
		row(m, r.e2e[m.Name])
	}
	if traced {
		fmt.Println(" per layer:")
		for _, m := range perLayer[unbounded:] {
			row(m, r.layers[m.Name])
		}
	}
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s = %.4f)\n", k, r.info[k])
	}
	for _, p := range r.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, g := range r.gates {
		fmt.Printf("  GATE: %s\n", g)
	}
}

// json renders the driver's result object.
func (r *report) json(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, metrics})
	return string(out)
}

// compareRuns prints each end-to-end metric's two values and relative
// difference and reports whether every one stayed within its bound.
func compareRuns(first, second map[string]*report) bool {
	ok := true
	fmt.Printf("\nselfcheck: two runs of the same build\n")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := first[w.name].e2e[m.Name], second[w.name].e2e[m.Name]
			diff := 0.0
			if a != 0 {
				diff = (b - a) / a
			}
			verdict := "ok"
			if diff > m.Bound || diff < -m.Bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-18s %-24s %14.4f %14.4f %+7.2f%% (bound %.0f%%) %s\n", w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
