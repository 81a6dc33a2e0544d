package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"clientmap/internal/experiments"
)

// flagCase is one command line and whether it must be accepted; wantErr
// is the flag the rejection must name (empty = must validate).
type flagCase struct {
	name    string
	args    []string
	wantErr string
}

// runFlagCases takes each command line as far as main does before the
// campaign starts — parse with the command's own flag set, check the
// flag-only rules, translate the shared configuration, validate it — so
// what is pinned is that this command's flags reach the library's one
// validation, and that every rejection happens before the run and names
// the offending flag.
func runFlagCases(t *testing.T, cases []flagCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flags := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			flags.SetOutput(io.Discard)
			o := bind(flags)
			if err := flags.Parse(tc.args); err != nil {
				t.Fatalf("%q does not parse: %v", tc.args, err)
			}
			err := o.Check()
			if err == nil {
				var cfg experiments.Config
				if cfg, err = o.EngineConfig(); err == nil {
					err = cfg.Validate(o.StreamHours > 0)
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("%q rejected: %v", tc.args, err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("%q accepted, want an error naming %q", tc.args, tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name the flag %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateShardFlags(t *testing.T) {
	const dir = "/tmp/x"
	runFlagCases(t, []flagCase{
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
	})
}

func TestValidateReliabilityFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "all empty"},
		{name: "all off", args: []string{"-faults", "off", "-retries", "off", "-health", "off"}},
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
	})
}

// -churn, -emit-every and -artifact only mean something in stream mode.
// Streams shard like batch passes do, but are incompatible with the
// health layer (the adaptive scheduler owns PoP liveness).
func TestValidateStreamFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "plain stream", args: []string{"-stream", "6"}},
		{name: "stream with everything", args: []string{"-stream", "6", "-churn", "realloc=2@2h,chromium=off@3h",
			"-emit-every", "2", "-artifact", "map.snap", "-faults", "loss=0.02", "-retries", "attempts=3", "-health", "off"}},
		{name: "batch with churn off", args: []string{"-churn", "off"}},
		{name: "bad churn spec", args: []string{"-stream", "6", "-churn", "realloc=4"}, wantErr: "-churn"},
		{name: "bad churn spec without stream", args: []string{"-churn", "bogus=1"}, wantErr: "-churn"},
		{name: "negative stream", args: []string{"-stream", "-1"}, wantErr: "-stream"},
		{name: "churn without stream", args: []string{"-churn", "realloc=2@2h"}, wantErr: "-churn"},
		{name: "emit-every without stream", args: []string{"-emit-every", "2"}, wantErr: "-emit-every"},
		{name: "artifact without stream", args: []string{"-artifact", "map.snap"}, wantErr: "-artifact"},
		{name: "negative emit-every", args: []string{"-stream", "6", "-emit-every", "-1"}, wantErr: "-emit-every"},
		{name: "stream with shards", args: []string{"-stream", "6", "-shards", "3"}},
		{name: "stream as shard runner", args: []string{"-stream", "6", "-shards", "3", "-shard-index", "1", "-state-dir", "/tmp/x"}},
		{name: "stream as runner zero of one shard", args: []string{"-stream", "6", "-shard-index", "0", "-state-dir", "/tmp/x"}},
		{name: "stream with health", args: []string{"-stream", "6", "-health", "on"}, wantErr: "-health"},
		{name: "stream with health spec", args: []string{"-stream", "6", "-health", "window=10m"}, wantErr: "-health"},
	})
}
