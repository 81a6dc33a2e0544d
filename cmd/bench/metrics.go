package main

import (
	"bytes"
	"encoding/json"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// root of the repository lists the same names, units, directions and
// bounds; a test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, on every workload, and
// what a later change is held to: the metrics that repeat, on the small
// shared hosts this runs on, within what the contract lets a bound be.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"probes_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// unbounded is how many of perLayer's first entries are not one layer's
// metrics but the workload's other end-to-end figures: measured and
// printed on every run exactly like the bounded ones, and listed without
// a bound because on those hosts they move by a fifth between two runs
// of one build (README.md has the spreads); a bound would gate on luck.
const unbounded = 10

// perLayer is what the traced run reports: those figures, then one
// layer each, measured from outside by timing calls into its public
// functions. Layer = package.
var perLayer = []metricDef{
	{Name: "resume_s", Unit: "s", Better: "lower"},
	{Name: "hour_max_ms", Unit: "ms", Better: "lower"},
	{Name: "dns_qps", Unit: "1/s", Better: "higher"},
	{Name: "dns_cpu_us_per_query", Unit: "us", Better: "lower"},
	{Name: "dns_p50_us", Unit: "us", Better: "lower"},
	{Name: "dns_p99_us", Unit: "us", Better: "lower"},
	{Name: "http_qps", Unit: "1/s", Better: "higher"},
	{Name: "http_cpu_us_per_query", Unit: "us", Better: "lower"},
	{Name: "http_p50_us", Unit: "us", Better: "lower"},
	{Name: "http_p99_us", Unit: "us", Better: "lower"},

	{Name: "pipeline.stage_s.world", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.scope-prescan", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.calibration", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.probe-pass-0", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.probe-pass-rest", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.ditl-dnslogs", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.baselines", Unit: "s", Better: "lower"},
	{Name: "pipeline.stage_s.dataset-views", Unit: "s", Better: "lower"},
	{Name: "pipeline.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "pipeline.overlap_x", Unit: "x", Better: "higher"},
	{Name: "pipeline.critical_chain", Unit: "s", Better: "lower"},
	{Name: "stream.hour_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "stream.hour_ms.max", Unit: "ms", Better: "lower"},
	{Name: "stream.setup_s", Unit: "s", Better: "lower"},

	{Name: "dnswire.append_marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.append_marshal_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.unmarshal_into_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.unmarshal_into_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.marshal_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.unmarshal_allocs", Unit: "count", Better: "lower"},

	{Name: "dnsnet.udp_echo_us", Unit: "us", Better: "lower"},
	{Name: "dnsnet.udp_echo_cpu_us", Unit: "us", Better: "lower"},
	{Name: "dnsnet.loopback_exchange_ns", Unit: "ns", Better: "lower"},

	{Name: "gpdns.snoop_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "gpdns.snoop_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "gpdns.snoop_allocs", Unit: "count", Better: "lower"},
	{Name: "gpdns.cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "cacheprobe.prescan_s", Unit: "s", Better: "lower"},
	{Name: "cacheprobe.calibrate_s", Unit: "s", Better: "lower"},
	{Name: "cacheprobe.build_assignments_ms", Unit: "ms", Better: "lower"},
	{Name: "cacheprobe.probe_pass_probes_per_s.w1", Unit: "1/s", Better: "higher"},
	{Name: "cacheprobe.probe_pass_probes_per_s.wN", Unit: "1/s", Better: "higher"},
	{Name: "cacheprobe.workers_speedup_x", Unit: "x", Better: "higher"},
	{Name: "cacheprobe.probe_shard_probes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cacheprobe.gather_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "cacheprobe.probe_pass_delta_probes_per_s", Unit: "1/s", Better: "higher"},

	{Name: "world.generate_s", Unit: "s", Better: "lower"},
	{Name: "roots.generate_s", Unit: "s", Better: "lower"},
	{Name: "roots.generate_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dnslogs.crawl_s", Unit: "s", Better: "lower"},
	{Name: "dnslogs.crawl_queries_per_s", Unit: "1/s", Better: "higher"},

	{Name: "snapshot.encode_mb_per_s.campaign", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.decode_mb_per_s.campaign", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.encode_mb_per_s.passdelta", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.decode_mb_per_s.passdelta", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.encode_mb_per_s.hourdelta", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.decode_mb_per_s.hourdelta", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.encode_mb_per_s.clientmap", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.decode_mb_per_s.clientmap", Unit: "MB/s", Better: "higher"},

	{Name: "statefs.write_atomic_ms.4k", Unit: "ms", Better: "lower"},
	{Name: "statefs.write_atomic_ms.2m", Unit: "ms", Better: "lower"},
	{Name: "statefs.read_file_ms.2m", Unit: "ms", Better: "lower"},
	{Name: "statefsck.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "statefsck.repair_ms", Unit: "ms", Better: "lower"},

	{Name: "stream.decay_to_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.serve_scopes_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rolling_export_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.plan_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.index_lookup24_ns.hot", Unit: "ns", Better: "lower"},
	{Name: "serve.index_lookup24_ns.cold", Unit: "ns", Better: "lower"},
	{Name: "serve.lookup_as_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.dns_handler_ns.hit", Unit: "ns", Better: "lower"},
	{Name: "serve.dns_handler_allocs.hit", Unit: "count", Better: "lower"},
	{Name: "serve.dns_handler_ns.miss", Unit: "ns", Better: "lower"},
	{Name: "serve.dns_handler_allocs.miss", Unit: "count", Better: "lower"},
	{Name: "serve.http_handler_ns.hit", Unit: "ns", Better: "lower"},
	{Name: "serve.http_handler_allocs.hit", Unit: "count", Better: "lower"},
	{Name: "serve.http_handler_ns.miss", Unit: "ns", Better: "lower"},
	{Name: "serve.http_handler_allocs.miss", Unit: "count", Better: "lower"},
	{Name: "serve.limiter_allow_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.reload_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.dns_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.http_cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "gen.echo_qps", Unit: "1/s", Better: "higher"},
	{Name: "gen.headroom_x", Unit: "x", Better: "higher"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// benchmarkContract renders BENCHMARK.json from the tables above, so the
// file at the root of the repository is written by the program it
// describes:
//
//	go run -C cmd/bench . -benchmark-json > BENCHMARK.json
func benchmarkContract() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "cmd/bench", "."},
		Paths:      []string{"cmd/bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(doc) // these types always encode
	return string(bytes.TrimSpace(buf.Bytes()))
}
