// Package cliflags declares, once, the flags cmd/clientmap and
// cmd/experiments share, so a flag cannot drift in name, default or help
// text between the two. The flags bind straight onto a clientmap.Config:
// the commands hand it to the library, which validates it before any
// work; Check holds the two rules only a command line can break.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"clientmap"
)

// Shared is what the shared flags fill: the run configuration and the two
// output paths both commands take.
type Shared struct {
	clientmap.Config
	// DegradationJSON and MetricsJSON are where -degradation-json and
	// -metrics-json write ("-" = stdout, "" = nowhere); see WriteOut.
	DegradationJSON string
	MetricsJSON     string
}

// Bind registers the shared flags on flags with the command's own -seed
// and -scale defaults. The result is filled when flags is parsed.
func Bind(flags *flag.FlagSet, seed uint64, scale string) *Shared {
	s := &Shared{}
	flags.Uint64Var(&s.Seed, "seed", seed, "simulation seed")
	flags.StringVar(&s.Scale, "scale", scale, "world scale: tiny|small|medium|large")
	flags.StringVar(&s.StateDir, "state-dir", "", "checkpoint pipeline stages into this directory")
	flags.BoolVar(&s.Resume, "resume", false, "reuse matching checkpoints in -state-dir, skipping completed stages")
	flags.IntVar(&s.Shards, "shards", 1, "split every probing pass (or stream hour) into this many scatter shards (results are identical for any count)")
	flags.IntVar(&s.ShardIndex, "shard-index", -1, "run as shard runner N of -shards sharing -state-dir; -1 executes every shard in this process")
	flags.StringVar(&s.ShardDir, "shard-dir", "", "work-stealing claim directory of a distributed run (default <state-dir>/shards)")
	flags.StringVar(&s.Faults, "faults", "", `inject deterministic transport faults, e.g. "loss=0.02,jitter=50ms,outage=fra@24h+6h" (empty or "off" = reliable substrate)`)
	flags.StringVar(&s.Retries, "retries", "", `probe retry policy, e.g. "attempts=3,timeout=2s,backoff=100ms,budget=1000" (empty or "off" = single try)`)
	flags.StringVar(&s.Health, "health", "", `graceful-degradation policy: "on" for defaults, or e.g. "window=15m,error-rate=0.5,open-after=4,probation=45m,hedge-after=150ms" (empty or "off" = no breakers/hedging/failover)`)
	flags.StringVar(&s.DegradationJSON, "degradation-json", "", `write the degradation ledger (breakers, hedges, failover, coverage) as JSON to this file ("-" = stdout)`)
	flags.StringVar(&s.MetricsJSON, "metrics-json", "", `write the deterministic metrics ledger as JSON to this file ("-" = stdout)`)
	flags.StringVar(&s.DebugAddr, "debug-addr", "", `serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. "localhost:6060") for the run's duration`)
	flags.IntVar(&s.StreamHours, "stream", 0, "continuous measurement mode: stream for this many simulated hours instead of running the batch evaluation")
	flags.StringVar(&s.Churn, "churn", "", `evolve the world while streaming, e.g. "realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h" (empty or "off" = static world)`)
	flags.IntVar(&s.EmitEvery, "emit-every", 0, "emit the rolling serving artifact every N simulated hours (0 = every hour; stream mode only)")
	return s
}

// Check rejects what the library cannot: its zero value must stay valid
// (Shards 0 = monolithic, ShardIndex ignored without sharding, as in a
// bare Config literal), but the flags default to 1 and -1, so on a
// command line those values are mistakes. Every other rule is
// experiments.Config.Validate's. Both commands call it after parsing.
func (s *Shared) Check() error {
	switch {
	case s.Shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", s.Shards)
	case s.ShardIndex >= 0 && s.StateDir == "":
		return errors.New("-shard-index requires -state-dir: shard runners share checkpoints through it")
	}
	return nil
}

// WriteOut writes a report payload where an output flag points: nowhere
// when path is empty, stdout when it is "-", else the named file.
func WriteOut(path string, data []byte) error {
	switch path {
	case "":
		return nil
	case "-":
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
