package experiments

import (
	"strings"
	"testing"

	"clientmap/internal/churn"
	"clientmap/internal/health"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

// TestValidate is the rule table of the one validation function: every
// rejection it makes, on configurations built in code. The zero value of
// every field must stay valid for the entry point that ignores it —
// cmd/bench builds a stream Config as a bare literal, so its Shards and
// ShardIndex are 0, not DefaultConfig's 1 and -1 — and a Config that
// asks for the other entry point's mode is an error, not a silent
// batch-instead-of-stream. The commands' flag tables (cmd/clientmap,
// cmd/experiments) pin that their flags reach it, plus the two
// flag-only rules of cliflags.Check.
func TestValidate(t *testing.T) {
	tiny := Config{Seed: randx.Seed(1), Scale: world.ScaleTiny}
	with := func(f func(*Config)) Config {
		c := tiny
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     Config
		stream  bool
		wantErr string // empty = must validate
	}{
		{name: "zero-value batch", cfg: tiny},
		{name: "zero-value stream", cfg: tiny, stream: true},
		{name: "default batch", cfg: DefaultConfig(randx.Seed(1), world.ScaleTiny)},
		{name: "default stream", cfg: DefaultConfig(randx.Seed(1), world.ScaleTiny), stream: true},
		{name: "stream literal with hours", cfg: with(func(c *Config) { c.Hours = 6; c.EmitEvery = 1; c.ArtifactPath = "map.snap" }), stream: true},
		{name: "in-process shards", cfg: with(func(c *Config) { c.Shards = 3; c.ShardIndex = -1 })},
		{name: "shard runner", cfg: with(func(c *Config) { c.Shards = 3; c.ShardIndex = 2; c.StateDir = "/tmp/x" })},
		{name: "negative shards", cfg: with(func(c *Config) { c.Shards = -2; c.ShardIndex = -1 }), wantErr: "Shards"},
		{name: "index below sentinel", cfg: with(func(c *Config) { c.Shards = 3; c.ShardIndex = -2 }), wantErr: "ShardIndex"},
		{name: "index equals shards", cfg: with(func(c *Config) { c.Shards = 3; c.ShardIndex = 3; c.StateDir = "/tmp/x" }), wantErr: "ShardIndex"},
		{name: "index set without shards", cfg: with(func(c *Config) { c.ShardIndex = 1 }), wantErr: "ShardIndex"},
		{name: "shard runner without state dir", cfg: with(func(c *Config) { c.Shards = 3; c.ShardIndex = 1 }), wantErr: "StateDir"},
		{name: "negative hours", cfg: with(func(c *Config) { c.Hours = -1 }), stream: true, wantErr: "Hours"},
		{name: "negative emit-every", cfg: with(func(c *Config) { c.Hours = 6; c.EmitEvery = -1 }), stream: true, wantErr: "EmitEvery"},
		{name: "emit-every on the batch entry point", cfg: with(func(c *Config) { c.EmitEvery = 2 }), wantErr: "EmitEvery"},
		{name: "hours set on the batch entry point", cfg: with(func(c *Config) { c.Hours = 6 }), wantErr: "RunStream"},
		{name: "churn on the batch entry point", cfg: with(func(c *Config) { c.Churn = churn.Config{ChromiumOff: true} }), wantErr: "Churn"},
		{name: "artifact on the batch entry point", cfg: with(func(c *Config) { c.ArtifactPath = "map.snap" }), wantErr: "ArtifactPath"},
		{name: "health on the stream entry point", cfg: with(func(c *Config) { c.Health = health.Default() }), stream: true, wantErr: "Health"},
		{name: "shards on the stream entry point", cfg: with(func(c *Config) { c.Shards = 3; c.ShardIndex = -1 }), stream: true},
		{name: "resume without state dir", cfg: with(func(c *Config) { c.Resume = true }), wantErr: "StateDir"},
		{name: "resume with state dir", cfg: with(func(c *Config) { c.Resume = true; c.StateDir = "/tmp/x" }), stream: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(tc.stream)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error naming %s", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}
