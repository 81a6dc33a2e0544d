package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"clientmap/internal/experiments"
	"clientmap/internal/health"
)

// parse takes a command line as far as main does before the campaign
// starts: parse with the command's own flag set, check the flag-only
// rules, translate the shared configuration, validate it.
func parse(t *testing.T, args ...string) (experiments.Config, error) {
	t.Helper()
	flags := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flags.SetOutput(io.Discard)
	o := bind(flags)
	if err := flags.Parse(args); err != nil {
		t.Fatalf("%q does not parse: %v", args, err)
	}
	if err := o.Check(); err != nil {
		return experiments.Config{}, err
	}
	cfg, err := o.EngineConfig()
	if err == nil {
		err = cfg.Validate(o.StreamHours > 0)
	}
	return cfg, err
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

// The -shards/-shard-index topology must be rejected before the run
// starts, with errors naming the offending flag.
func TestValidateShardFlags(t *testing.T) {
	const dir = "/tmp/x"
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must validate
	}{
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
		{name: "stream with shards", args: []string{"-stream", "6", "-shards", "3"}},
		{name: "stream as runner zero of one shard", args: []string{"-stream", "6", "-shard-index", "0", "-state-dir", dir}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.args...)
			if tc.wantErr != "" {
				wantReject(t, err, tc.wantErr)
			} else if err != nil {
				t.Fatalf("%q rejected: %v", tc.args, err)
			}
		})
	}
}

// The reliability flags must produce the typed configs for valid specs
// and reject out-of-range values with errors naming the offending flag.
func TestParseReliability(t *testing.T) {
	cfg, err := parse(t,
		"-faults", "loss=0.02,dup=0.01,trunc=0.005,jitter=50ms,outage=fra@24h+6h",
		"-retries", "attempts=3,timeout=2s,backoff=100ms,budget=1000",
		"-health", "window=10m,error-rate=0.6,hedge-after=100ms")
	if err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	fc, rc, hc := cfg.Faults, cfg.Retry, cfg.Health
	if fc.Loss != 0.02 || fc.Dup != 0.01 || fc.Trunc != 0.005 || fc.Jitter != 50*time.Millisecond {
		t.Errorf("fault rates not parsed: %+v", fc)
	}
	if len(fc.Outages) != 1 || fc.Outages[0].Target != "fra" ||
		fc.Outages[0].Start != 24*time.Hour || fc.Outages[0].Duration != 6*time.Hour {
		t.Errorf("outage not parsed: %+v", fc.Outages)
	}
	if rc.Attempts != 3 || rc.Timeout != 2*time.Second || rc.Backoff != 100*time.Millisecond || rc.BudgetPerPoP != 1000 {
		t.Errorf("retry policy not parsed: %+v", rc)
	}
	if !hc.On || hc.Window != 10*time.Minute || hc.ErrorRate != 0.6 || hc.HedgeAfter != 100*time.Millisecond {
		t.Errorf("health policy not parsed: %+v", hc)
	}

	if cfg, err := parse(t); err != nil || cfg.Health.Enabled() {
		t.Errorf("empty specs must mean off, got %+v, %v", cfg.Health, err)
	}
	if cfg, err := parse(t, "-health", "on"); err != nil || cfg.Health != health.Default() {
		t.Errorf(`-health "on" must mean the default policy, got %+v, %v`, cfg.Health, err)
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
			_, err := parse(t, tc.flagName, tc.spec)
			wantReject(t, err, tc.flagName)
		})
	}
}
