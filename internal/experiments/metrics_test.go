package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

// TestMetricsDeterminism is the observability layer's headline guarantee,
// mirroring TestChaosCampaignDeterminism: the exported metrics ledger —
// every counter and histogram bucket -metrics-json emits — is
// byte-identical across worker counts and across a mid-campaign
// kill-and-resume, on both a reliable and a fault-injected substrate.
// The fold into the checkpointed Campaign.Metrics is what makes the
// resume half work: the in-process registry dies with the process, the
// folded ledger does not.
func TestMetricsDeterminism(t *testing.T) {
	base := DefaultConfig(randx.Seed(2021), world.ScaleTiny)
	base.CampaignDuration = 24 * time.Hour
	base.Passes = 3
	base.TraceDuration = 6 * time.Hour

	faulty := base
	faulty.Faults = faults.Config{Loss: 0.02}
	faulty.Retry = cacheprobe.Retry{Attempts: 3, Backoff: 100 * time.Millisecond}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"reliable", base},
		{"faulty", faulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, 1)
			w1, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			withProcs(t, 8)
			w8, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			j1, j8 := w1.MetricsJSON(), w8.MetricsJSON()
			if !bytes.Equal(j1, j8) {
				t.Errorf("metrics JSON differs between worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", j1, j8)
			}
			if w1.RenderMetrics().String() != w8.RenderMetrics().String() {
				t.Error("rendered metrics tables differ between worker counts")
			}

			// The ledger must be non-trivial, or the comparison proves
			// nothing: the prober, the transports and the cache model all
			// counted.
			led := w1.MetricsLedger()
			for _, key := range []string{
				"cacheprobe/probe/probes", "cacheprobe/probe/hits",
				"cacheprobe/prescan/queries", "cacheprobe/calibrate/probes",
				"dnsnet/vantage/queries", "dnsnet/auth/queries",
				"gpdns/queries", "gpdns/cache_hits",
				"dnslogs/total_queries",
			} {
				if led[key] <= 0 {
					t.Errorf("ledger[%q] = %d, want > 0", key, led[key])
				}
			}
			if tc.name == "faulty" {
				if led["cacheprobe/retry/spent"] <= 0 {
					t.Errorf("ledger[cacheprobe/retry/spent] = %d under 2%% loss, want > 0", led["cacheprobe/retry/spent"])
				}
				if led["faults/injected_drops"] <= 0 {
					t.Errorf("ledger[faults/injected_drops] = %d under 2%% loss, want > 0", led["faults/injected_drops"])
				}
				if led["dnsnet/vantage/timeouts"] <= 0 {
					t.Errorf("ledger[dnsnet/vantage/timeouts] = %d under 2%% loss, want > 0 (Instrument must wrap outside the fault injector)", led["dnsnet/vantage/timeouts"])
				}
			}

			// Kill right after probe-pass-1 checkpoints, resume in a fresh
			// "process" (fresh registry), and demand the same bytes.
			dir := t.TempDir()
			kcfg := tc.cfg
			kcfg.StateDir = dir
			kcfg.StopAfter = ProbePassStage(1)
			if _, err := Run(kcfg); !errors.Is(err, pipeline.ErrStopped) {
				t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
			}
			rcfg := tc.cfg
			rcfg.StateDir = dir
			rcfg.Resume = true
			resumed, err := Run(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if jr := resumed.MetricsJSON(); !bytes.Equal(j1, jr) {
				t.Errorf("metrics JSON changed across kill/resume:\nuninterrupted:\n%s\nresumed:\n%s", j1, jr)
			}

			// The resumed run wrote the trace sidecar, and it has spans.
			tracePath := filepath.Join(dir, "metrics", "trace.jsonl")
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(bytes.TrimSpace(data)) == 0 {
				t.Error("trace file is empty")
			}
			if resumed.Trace.Len() == 0 {
				t.Error("Results.Trace has no spans")
			}
		})
	}
}

// TestLogRouting pins the Config.Log contract: a nil Log never panics
// anywhere (every line funnels through Config.logf), and a captured Log
// sees both transitions — running and done — of every stage, including
// the in-memory ones the runner previously only half-logged.
func TestLogRouting(t *testing.T) {
	cfg := DefaultConfig(randx.Seed(5), world.ScaleTiny)
	cfg.CampaignDuration = 12 * time.Hour
	cfg.Passes = 2
	cfg.TraceDuration = 3 * time.Hour
	cfg.Log = nil // must hold everywhere, including the stage runner

	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	lg := &logCapture{}
	cfg.Log = lg.logf
	cfg.StateDir = t.TempDir()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	stages := []string{
		StageWorld, StageSetup, StagePreScan, StageCalibrate,
		ProbePassStage(0), ProbePassStage(1),
		StageFinish, StageDNSLogs, StageBaselines, StageViews,
	}
	for _, s := range stages {
		if n := lg.count("stage " + s + ": running"); n != 1 {
			t.Errorf("stage %s: %d running lines, want 1", s, n)
		}
		if n := lg.count("stage " + s + ": done"); n != 1 {
			t.Errorf("stage %s: %d done lines, want 1", s, n)
		}
	}
	if n := lg.count("trace spans"); n != 1 {
		t.Errorf("%d trace-written lines, want 1", n)
	}
}
