package clientmap

import "clientmap/internal/experiments"

// StreamRun is a finished streaming run.
type StreamRun struct {
	res *experiments.StreamResults
}

// RunStream executes the continuous measurement mode: instead of a
// fixed-length campaign, probing loops one simulated hour at a time
// (Config.StreamHours of them) over a world Config.Churn evolves,
// decaying old evidence and emitting a rolling serving artifact
// clientmapd can hot-reload.
func RunStream(cfg Config) (*StreamRun, error) {
	res, err := run(cfg, true, experiments.RunStream)
	if err != nil {
		return nil, err
	}
	return &StreamRun{res: res}, nil
}

// ReportText renders the stream's end-of-run summary: the rolling-view
// headline, the coverage-lag table, and the quantified Chromium-
// deprecation loss. Byte-identical for equal configurations.
func (s *StreamRun) ReportText() string { return s.res.Report.Render() }

// MetricsJSON renders the stream's deterministic metrics ledger
// (campaign counters plus "stream/…" keys) as canonical JSON.
func (s *StreamRun) MetricsJSON() []byte { return s.res.MetricsJSON() }

// FinalArtifactHash is the payload hash of the last emitted rolling
// artifact (empty if the stream ran zero hours).
func (s *StreamRun) FinalArtifactHash() string { return s.res.FinalHash }
