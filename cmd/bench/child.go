package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"syscall"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/experiments"
	"clientmap/internal/faults"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/serve"
	"clientmap/internal/world"
)

// The produce leg of every workload — a batch evaluation or a streaming
// campaign — runs in a fresh child of the benchmark (a re-exec of this
// binary with -child), so its wall clock, CPU and peak RSS are its own
// and not the load generator's. The parent hands the child a spec file
// holding only generated inputs and reads a result file back.

// Stream workload parameters: part of the workload's definition.
const (
	streamChurn   = "realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h"
	streamFaults  = "loss=0.02,jitter=50ms"
	streamRetries = "attempts=3,timeout=2s,backoff=100ms"
)

// probesKey is the ledger counter the benchmark reads as "probes sent".
const probesKey = "dnsnet/vantage/queries"

type childSpec struct {
	Kind      string `json:"kind"` // "eval" or "stream"
	Scale     string `json:"scale"`
	WorldSeed uint64 `json:"world_seed"`
	Hours     int    `json:"hours,omitempty"` // stream only
	StateDir  string `json:"state_dir"`
	Resume    bool   `json:"resume,omitempty"`
	// Artifact is where the serving artifact goes: written once after an
	// eval run, rolled every simulated hour by a stream run.
	Artifact string `json:"artifact"`
	Out      string `json:"out"`
}

type childResult struct {
	// StartedAt is when the timed run began, in Unix nanoseconds, so the
	// parent can place the child's stage spans on its own trace clock.
	StartedAt int64       `json:"started_at"`
	WallS     float64     `json:"wall_s"`
	Probes    int64       `json:"probes"`
	Stages    []stageSpan `json:"stages"`
	// OutputHash covers every deterministic output of the run: report
	// text, metrics ledger and the serving artifact's payload hash. A
	// resumed run must reproduce the fresh run's value.
	OutputHash   string `json:"output_hash"`
	ArtifactHash string `json:"artifact_hash"`
	// PeakRSSMiB is the child's own VmHWM when it finished. The kernel's
	// ru_maxrss for a child will not do: it starts from the parent's
	// resident size at the fork, so a benchmark that has grown reports
	// itself.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

func scaleByName(name string) (world.Scale, error) {
	switch name {
	case "tiny":
		return world.ScaleTiny, nil
	case "small":
		return world.ScaleSmall, nil
	case "medium":
		return world.ScaleMedium, nil
	}
	return world.Scale{}, fmt.Errorf("unknown scale %q", name)
}

func hashOutputs(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// childMain is the entry point of a -child process.
func childMain(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	var res *childResult
	switch spec.Kind {
	case "eval":
		res, err = childEval(spec)
	case "stream":
		res, err = childStream(spec)
	default:
		err = fmt.Errorf("unknown child kind %q", spec.Kind)
	}
	if err != nil {
		return err
	}
	if res.PeakRSSMiB, err = procPeakRSSMiB(os.Getpid()); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(spec.Out, out, 0o644)
}

func childEval(spec childSpec) (*childResult, error) {
	scale, err := scaleByName(spec.Scale)
	if err != nil {
		return nil, err
	}
	cfg := experiments.DefaultConfig(randx.Seed(spec.WorldSeed), scale)
	cfg.StateDir = spec.StateDir
	cfg.Resume = spec.Resume
	stages := newStageLog()
	cfg.Log = stages.logf

	t0 := time.Now()
	r, err := experiments.Run(cfg)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	cm := r.ClientMap()
	if err := cm.Validate(); err != nil {
		return nil, fmt.Errorf("exported artifact: %w", err)
	}
	artifact, hash := serve.Marshal(cm)
	if !spec.Resume {
		if err := os.WriteFile(spec.Artifact, artifact, 0o644); err != nil {
			return nil, err
		}
	}
	return &childResult{
		StartedAt:    t0.UnixNano(),
		WallS:        wall,
		Probes:       r.MetricsLedger()[probesKey],
		Stages:       stages.result(),
		OutputHash:   hashOutputs([]byte(r.RenderAll()), r.MetricsJSON(), []byte(hash)),
		ArtifactHash: hash,
	}, nil
}

func childStream(spec childSpec) (*childResult, error) {
	scale, err := scaleByName(spec.Scale)
	if err != nil {
		return nil, err
	}
	ch, err := churn.Parse(streamChurn)
	if err != nil {
		return nil, err
	}
	fl, err := faults.Parse(streamFaults)
	if err != nil {
		return nil, err
	}
	rt, err := cacheprobe.ParseRetry(streamRetries)
	if err != nil {
		return nil, err
	}
	stages := newStageLog()
	cfg := experiments.StreamConfig{
		Seed:         randx.Seed(spec.WorldSeed),
		Scale:        scale,
		Hours:        spec.Hours,
		EmitEvery:    1,
		Churn:        ch,
		Faults:       fl,
		Retry:        rt,
		ArtifactPath: spec.Artifact,
		StateDir:     spec.StateDir,
		Resume:       spec.Resume,
		Log:          stages.logf,
	}
	t0 := time.Now()
	r, err := experiments.RunStream(cfg)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	// The rolling artifact on disk must be the final view, decodable and
	// structurally valid.
	cm, hash, err := serve.ReadFile(spec.Artifact)
	if err != nil {
		return nil, fmt.Errorf("rolling artifact: %w", err)
	}
	if err := cm.Validate(); err != nil {
		return nil, fmt.Errorf("rolling artifact: %w", err)
	}
	if hash != r.FinalHash {
		return nil, fmt.Errorf("rolling artifact on disk is %.12s, final view is %.12s", hash, r.FinalHash)
	}
	return &childResult{
		StartedAt:    t0.UnixNano(),
		WallS:        wall,
		Probes:       r.MetricsLedger()[probesKey],
		Stages:       stages.result(),
		OutputHash:   hashOutputs([]byte(r.Report.Render()), r.MetricsJSON(), []byte(r.FinalHash)),
		ArtifactHash: hash,
	}, nil
}

// produced is what the parent learns from one child: its own result file
// plus the CPU time the kernel accounted to the process.
type produced struct {
	childResult
	cpuS float64
}

// runChild re-executes the benchmark as a produce child and waits for it.
func (b *bench) runChild(spec childSpec) (*produced, error) {
	tag := fmt.Sprintf("%s-%d", spec.Kind, b.nextID())
	specPath := b.tmp(tag + ".spec.json")
	spec.Out = b.tmp(tag + ".result.json")
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(b.self, "-child", specPath)
	cmd.Stderr = os.Stderr
	if err := b.procs.start(cmd); err != nil {
		return nil, err
	}
	if err := b.procs.wait(cmd); err != nil {
		return nil, fmt.Errorf("%s child: %w", spec.Kind, err)
	}
	out, err := os.ReadFile(spec.Out)
	if err != nil {
		return nil, err
	}
	p := &produced{cpuS: childCPU(cmd)}
	if err := json.Unmarshal(out, &p.childResult); err != nil {
		return nil, fmt.Errorf("%s child result: %w", spec.Kind, err)
	}
	return p, nil
}

// echoMain is the entry point of the -echo child, a UDP server that
// never touches the artifact. Plain, it sends every datagram straight
// back without parsing it: the generator's own yardstick, what the load
// loop reaches against a server that does nothing. With canned set it is
// a dnsnet.Server whose handler returns an empty reply: the transport
// floor under the daemon's cost per query.
func echoMain(canned bool) error {
	if canned {
		srv := dnsnet.NewServer(dnsnet.HandlerFunc(func(_ context.Context, _ netx.Addr, q *dnswire.Message) *dnswire.Message {
			return q.Reply()
		}))
		addr, err := srv.ListenUDP("127.0.0.1:0")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "echo on %s\n", addr)
		select {} // until the parent kills it
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := pc.LocalAddr()
	conn, err := newBlockingConn(pc.(fileConn), time.Hour)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "echo on %s\n", addr)
	buf := make([]byte, 65535)
	for {
		n, from, err := syscall.Recvfrom(conn.fd, buf, 0)
		if err == syscall.EINTR || err == syscall.EAGAIN {
			continue
		}
		if err != nil {
			return os.NewSyscallError("recvfrom", err)
		}
		if err := syscall.Sendto(conn.fd, buf[:n], 0, from); err != nil && err != syscall.EINTR {
			return os.NewSyscallError("sendto", err)
		}
	}
}
