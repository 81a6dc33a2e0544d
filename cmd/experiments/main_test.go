package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// flagCase is one command line and whether it must be accepted; wantErr
// is the flag the rejection must name (empty = must validate).
type flagCase struct {
	name    string
	args    []string
	wantErr string
}

// parse takes a command line as far as main does before the campaign
// starts: parse with the command's own flag set, then check it, which
// ends in the library's one validation.
func parse(t *testing.T, args ...string) error {
	t.Helper()
	flags := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flags.SetOutput(io.Discard)
	o := bind(flags)
	if err := flags.Parse(args); err != nil {
		t.Fatalf("%q does not parse: %v", args, err)
	}
	return o.check()
}

// wantReject asserts a rejection that names the offending flag.
func wantReject(t *testing.T, err error, flagName string) {
	t.Helper()
	if err == nil {
		t.Fatalf("accepted, want an error naming %q", flagName)
	}
	if !strings.Contains(err.Error(), flagName) {
		t.Fatalf("error %q does not name the flag %q", err, flagName)
	}
}

// runFlagCases pins that each command line reaches the library's
// validation, and that every rejection happens before the run and names
// the offending flag.
func runFlagCases(t *testing.T, cases []flagCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(t, tc.args...)
			if tc.wantErr != "" {
				wantReject(t, err, tc.wantErr)
			} else if err != nil {
				t.Fatalf("%q rejected: %v", tc.args, err)
			}
		})
	}
}

// shardCases are the -shards/-shard-index topologies every mode of the
// command shares; dir stands in for a -state-dir.
func shardCases(dir string) []flagCase {
	return []flagCase{
		{name: "defaults", args: []string{"-shards", "1", "-shard-index", "-1"}},
		{name: "in-process scatter/gather", args: []string{"-shards", "8"}},
		{name: "in-process with state dir", args: []string{"-shards", "3", "-state-dir", dir}},
		{name: "first shard runner", args: []string{"-shards", "3", "-shard-index", "0", "-state-dir", dir}},
		{name: "last shard runner", args: []string{"-shards", "3", "-shard-index", "2", "-state-dir", dir}},
		{name: "zero shards", args: []string{"-shards", "0"}, wantErr: "-shards"},
		{name: "negative shards", args: []string{"-shards", "-2"}, wantErr: "-shards"},
		{name: "index equals shards", args: []string{"-shards", "3", "-shard-index", "3", "-state-dir", dir}, wantErr: "-shard-index"},
		{name: "index beyond shards", args: []string{"-shards", "3", "-shard-index", "7", "-state-dir", dir}, wantErr: "-shard-index"},
		// Degenerates to a monolithic run.
		{name: "runner zero of one shard", args: []string{"-shards", "1", "-shard-index", "0", "-state-dir", dir}},
		{name: "negative index below sentinel", args: []string{"-shards", "3", "-shard-index", "-2"}, wantErr: "-shard-index"},
		{name: "runner without state dir", args: []string{"-shards", "3", "-shard-index", "1"}, wantErr: "-state-dir"},
		{name: "runner zero of one shard without state dir", args: []string{"-shard-index", "0"}, wantErr: "-state-dir"},
		{name: "resume without state dir", args: []string{"-resume"}, wantErr: "-state-dir"},
	}
}

// The -shards/-shard-index topology must be rejected before the run
// starts, with errors naming the offending flag.
func TestValidateShardFlags(t *testing.T) {
	const dir = "/tmp/x"
	runFlagCases(t, append(shardCases(dir),
		flagCase{name: "stream with shards", args: []string{"-stream", "6", "-shards", "3"}},
		flagCase{name: "stream as runner zero of one shard", args: []string{"-stream", "6", "-shard-index", "0", "-state-dir", dir}},
	))
}

// A query run (-prefix, -asn, -coverage, -headline) only changes what is
// printed: it must accept and reject exactly the shard topologies the
// full report does, naming the same flag.
func TestValidateShardFlagsWithQueries(t *testing.T) {
	queries := []string{"-prefix", "1.3.7.0/24", "-asn", "150", "-coverage", "-headline"}
	cases := shardCases("/tmp/x")
	for i := range cases {
		cases[i].args = append(cases[i].args, queries...)
	}
	runFlagCases(t, cases)
}

// The reliability specs must validate when well formed and be rejected
// with errors naming the offending flag otherwise. The typed configs they
// parse into are pinned by the root package's TestEngineConfigParsesSpecs.
func TestParseReliability(t *testing.T) {
	if err := parse(t,
		"-faults", "loss=0.02,dup=0.01,trunc=0.005,jitter=50ms,outage=fra@24h+6h",
		"-retries", "attempts=3,timeout=2s,backoff=100ms,budget=1000",
		"-health", "window=10m,error-rate=0.6,hedge-after=100ms"); err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	bad := []struct{ name, flagName, spec string }{
		{"loss above one", "-faults", "loss=1.5"},
		{"trunc below zero", "-faults", "trunc=-0.5"},
		{"bad jitter", "-faults", "jitter=fast"},
		{"zero-length outage", "-faults", "outage=fra@1h+0s"},
		{"zero attempts", "-retries", "attempts=0"},
		{"negative timeout", "-retries", "attempts=2,timeout=-1s"},
		{"unknown retry key", "-retries", "attempts=2,tries=7"},
		{"health rate above one", "-health", "error-rate=2"},
		{"unknown health key", "-health", "windows=5m"},
		{"negative hedge threshold", "-health", "hedge-after=-1ms"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			wantReject(t, parse(t, tc.flagName, tc.spec), tc.flagName)
		})
	}
}

func TestValidateReliabilityFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "all empty"},
		{name: "all off", args: []string{"-faults", "off", "-retries", "off", "-health", "off", "-disk-faults", "off"}},
		{name: "valid specs", args: []string{
			"-faults", "loss=0.02,dup=0.01,trunc=0.005,jitter=50ms,outage=fra@24h+6h",
			"-retries", "attempts=3,timeout=2s,backoff=100ms,budget=1000",
			"-health", "window=15m,error-rate=0.5,open-after=4,probation=45m,hedge-after=150ms"}},
		{name: "health defaults", args: []string{"-health", "on"}},
		{name: "loss above one", args: []string{"-faults", "loss=2"}, wantErr: "-faults"},
		{name: "negative loss", args: []string{"-faults", "loss=-0.1"}, wantErr: "-faults"},
		{name: "negative jitter", args: []string{"-faults", "jitter=-5ms"}, wantErr: "-faults"},
		{name: "outage without duration", args: []string{"-faults", "outage=fra@24h"}, wantErr: "-faults"},
		{name: "unknown fault key", args: []string{"-faults", "lossy=0.5"}, wantErr: "-faults"},
		{name: "zero attempts", args: []string{"-retries", "attempts=0"}, wantErr: "-retries"},
		{name: "missing attempts", args: []string{"-retries", "timeout=2s"}, wantErr: "-retries"},
		{name: "negative backoff", args: []string{"-retries", "attempts=2,backoff=-1s"}, wantErr: "-retries"},
		{name: "negative budget", args: []string{"-retries", "attempts=2,budget=-5"}, wantErr: "-retries"},
		{name: "health rate above one", args: []string{"-health", "error-rate=1.5"}, wantErr: "-health"},
		{name: "health zero window", args: []string{"-health", "window=0s"}, wantErr: "-health"},
		{name: "health trial above one", args: []string{"-health", "trial=2"}, wantErr: "-health"},
		{name: "unknown health key", args: []string{"-health", "hedge=5ms"}, wantErr: "-health"},
		{name: "health not key=value", args: []string{"-health", "window"}, wantErr: "-health"},
		{name: "disk faults with state dir", args: []string{"-disk-faults", "torn=probe-pass-1@1", "-state-dir", "/tmp/x"}},
		{name: "disk faults without state dir", args: []string{"-disk-faults", "torn=probe-pass-1@1"}, wantErr: "-state-dir"},
		{name: "bad disk-faults spec", args: []string{"-disk-faults", "torn=@2", "-state-dir", "/tmp/x"}, wantErr: "-disk-faults"},
	})
}

// -churn and -emit-every only mean something in stream mode, while
// -serve-artifact means the same in both. Streams shard like batch passes
// do, but are incompatible with the health layer (the adaptive scheduler
// owns PoP liveness) and with the batch evaluation's outputs and queries.
func TestValidateStreamFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "plain stream", args: []string{"-stream", "6"}},
		{name: "stream with everything", args: []string{"-stream", "6", "-churn", "realloc=2@2h,chromium=off@3h",
			"-emit-every", "2", "-serve-artifact", "map.snap", "-faults", "loss=0.02", "-retries", "attempts=3", "-health", "off"}},
		{name: "batch with churn off", args: []string{"-churn", "off"}},
		{name: "bad churn spec", args: []string{"-stream", "6", "-churn", "realloc=4"}, wantErr: "-churn"},
		{name: "bad churn spec without stream", args: []string{"-churn", "bogus=1"}, wantErr: "-churn"},
		{name: "negative stream", args: []string{"-stream", "-1"}, wantErr: "-stream"},
		{name: "churn without stream", args: []string{"-churn", "realloc=2@2h"}, wantErr: "-churn"},
		{name: "emit-every without stream", args: []string{"-emit-every", "2"}, wantErr: "-emit-every"},
		{name: "artifact without stream", args: []string{"-serve-artifact", "map.snap"}},
		{name: "negative emit-every", args: []string{"-stream", "6", "-emit-every", "-1"}, wantErr: "-emit-every"},
		{name: "stream with shards", args: []string{"-stream", "6", "-shards", "3"}},
		{name: "stream as shard runner", args: []string{"-stream", "6", "-shards", "3", "-shard-index", "1", "-state-dir", "/tmp/x"}},
		{name: "stream as runner zero of one shard", args: []string{"-stream", "6", "-shard-index", "0", "-state-dir", "/tmp/x"}},
		{name: "stream with health", args: []string{"-stream", "6", "-health", "on"}, wantErr: "-health"},
		{name: "stream with health spec", args: []string{"-stream", "6", "-health", "window=10m"}, wantErr: "-health"},
		{name: "stream with a report file", args: []string{"-stream", "6", "-out", "report.md"}, wantErr: "-stream"},
		{name: "stream with a query", args: []string{"-stream", "6", "-prefix", "1.3.7.0/24"}, wantErr: "-stream"},
	})
}
