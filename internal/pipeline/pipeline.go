// Package pipeline turns a monolithic run into a graph of resumable
// stages with durable intermediate artifacts — the architecture long
// measurement campaigns need: a 120-hour probing run that dies after
// pass 5 must restart at pass 6, not at hour zero.
//
// A Stage declares its upstream dependencies, a config fingerprint
// (the knobs that affect its output), and — for persisted stages — a
// snapshot codec for its artifact. At execution time the runner derives
// each stage's fingerprint by hashing its name, codec identity, config
// fingerprint, and the *artifact hashes* of everything upstream, so a
// change anywhere in a stage's input cone invalidates exactly that
// stage and its descendants. If the state directory already holds an
// artifact with a matching fingerprint (and matching snapshot versions),
// the stage is skipped and the artifact decoded instead — the log line
// says so, which is how "a re-run with an unchanged config re-probes
// nothing" is observable.
//
// Stages with no dependency relationship execute concurrently; each
// stage starts the moment its dependencies finish. Ephemeral stages
// (nil codec) always execute — they rebuild in-memory environment
// (worlds, probers, transports) that is cheap relative to measurement
// and cannot meaningfully be serialized.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"clientmap/internal/metrics"
	"clientmap/internal/par"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefs"
)

// ErrStopped reports a run aborted by Options.StopAfter. Artifacts
// checkpointed before the stop remain on disk and a subsequent run with
// Resume picks up from them — the tested stand-in for a killed process.
var ErrStopped = errors.New("pipeline: run stopped after requested stage")

// Gate arbitrates which process builds a persisted stage when several
// runners share one state directory. Before building such a stage, the
// runner asks the gate; a false answer means "another runner owns it" —
// the stage then polls the state directory until the owner's checkpoint
// appears, re-asking the gate each round so an implementation can time
// out on a straggler and hand the stage over after all. Acquire is
// called from concurrent stage goroutines and must be safe for that.
// Duplicate builds are permitted (artifacts are deterministic and
// written atomically, so the second write is a byte-identical replace);
// a gate's job is economy and exactly-once accounting, not correctness.
type Gate interface {
	Acquire(stage string) bool
}

// Options configure a Runner.
type Options struct {
	// Dir is the state directory artifacts are checkpointed into; empty
	// disables persistence entirely (every stage runs in memory).
	Dir string
	// FS is the state-I/O seam checkpoints are written and restored
	// through; nil means the durable on-disk implementation
	// (statefs.Disk). Tests inject statefs.Faulty to drill torn writes,
	// ENOSPC and silent bit rot against the checkpoint path.
	FS statefs.FS
	// Resume reuses artifacts in Dir whose fingerprints match. Without
	// it, existing artifacts are ignored and overwritten — the "I
	// changed something invisible to fingerprints, start clean" escape
	// hatch.
	Resume bool
	// StopAfter aborts the run right after the named stage completes
	// (and checkpoints). Stages already running concurrently may still
	// finish, exactly as with a real kill signal.
	StopAfter string
	// Gate, when set, coordinates persisted-stage builds across processes
	// sharing Dir (see Gate). Requires Resume: a non-owning runner
	// obtains the stage's artifact by restoring the owner's checkpoint.
	// Ephemeral stages ignore the gate — they rebuild process-local
	// state every runner needs.
	Gate Gate
	// GatePoll is how often a non-owning stage re-checks the state
	// directory (and the gate) while waiting; 0 means 25ms. Real time,
	// not simulated: it paces filesystem polling, not the campaign.
	GatePoll time.Duration
	// Log receives human-readable stage progress lines; nil discards.
	Log func(format string, args ...any)
	// Trace, when set, receives one structured span per stage reporting
	// whether it executed or was restored from a checkpoint, the artifact
	// size for persisted stages, and the short fingerprint. Spans are
	// stamped with TraceTime (not wall clock) so a trace is reproducible.
	Trace *metrics.Trace
	// TraceTime is the timestamp stamped on pipeline spans — callers pass
	// the simulated campaign start. The zero value is fine (spans then
	// sort purely by stage name).
	TraceTime time.Time
}

// Handle is an opaque reference to a registered stage, used to declare
// dependencies. Only *Stage values implement it.
type Handle interface {
	// Name returns the stage's registered name.
	Name() string
	await() error
	meta() *stageMeta
	exec(ctx context.Context, r *Runner) error
}

// stageMeta is the type-independent execution state of a stage.
type stageMeta struct {
	name     string
	configFP string
	deps     []Handle
	done     chan struct{}
	err      error
	// fingerprint is the stage's derived input fingerprint, available
	// once the stage completes.
	fingerprint string
	// artifactHash is what downstream fingerprints chain on: the
	// content hash of the encoded artifact for persisted stages, the
	// fingerprint itself for ephemeral ones.
	artifactHash string
	restored     bool
}

// Stage is one node of the pipeline. Obtain via AddStage; read the
// artifact with Out after the Runner finishes.
type Stage[T any] struct {
	m     stageMeta
	codec *snapshot.Codec[T]
	build func(ctx context.Context) (T, error)
	out   T
}

// Runner executes registered stages.
type Runner struct {
	opts    Options
	fs      statefs.FS
	stages  []Handle
	stopped chan struct{}
	stopOne func()
}

// New returns a Runner with the given options.
func New(opts Options) *Runner {
	r := &Runner{opts: opts, fs: statefs.Or(opts.FS), stopped: make(chan struct{})}
	var once bool
	r.stopOne = func() {
		if !once {
			once = true
			close(r.stopped)
		}
	}
	return r
}

func (r *Runner) logf(format string, args ...any) {
	if r.opts.Log != nil {
		r.opts.Log(format, args...)
	}
}

// AddStage registers a stage. Dependencies must already be registered
// (which keeps registration order a valid topological order). A nil
// codec marks the stage ephemeral: it always executes and nothing is
// persisted. configFP must capture every knob that can change the
// stage's output and is not already reflected in an upstream artifact.
func AddStage[T any](r *Runner, name, configFP string, deps []Handle, codec *snapshot.Codec[T], build func(ctx context.Context) (T, error)) *Stage[T] {
	s := &Stage[T]{
		m: stageMeta{
			name:     name,
			configFP: configFP,
			deps:     deps,
			done:     make(chan struct{}),
		},
		codec: codec,
		build: build,
	}
	r.stages = append(r.stages, s)
	return s
}

// Name returns the stage's registered name.
func (s *Stage[T]) Name() string { return s.m.name }

// Out returns the stage's artifact. Valid only after Runner.Run returns
// nil, or — for this stage specifically — after it completed during a
// stopped run.
func (s *Stage[T]) Out() T { return s.out }

// Restored reports whether the artifact was decoded from a checkpoint
// rather than built.
func (s *Stage[T]) Restored() bool { return s.m.restored }

// ArtifactHash returns the stage's artifact content hash — what
// downstream fingerprints chain on (the payload hash for persisted
// stages, the fingerprint for ephemeral ones). Valid once the stage has
// completed; delta artifacts record it as the base they apply to.
func (s *Stage[T]) ArtifactHash() string { return s.m.artifactHash }

func (s *Stage[T]) meta() *stageMeta { return &s.m }

func (s *Stage[T]) await() error {
	<-s.m.done
	return s.m.err
}

// Run executes every registered stage, respecting dependencies, with
// independent stages running concurrently. It returns the first stage
// error, or ErrStopped if Options.StopAfter cut the run short.
func (r *Runner) Run(ctx context.Context) error {
	var g par.Group
	for _, s := range r.stages {
		s := s
		g.Go(func() error { return s.exec(ctx, r) })
	}
	return g.Wait()
}

// errDep marks "a dependency already failed"; the dependency's own
// goroutine reports the real error to the group.
var errDep = errors.New("pipeline: dependency failed")

func (s *Stage[T]) exec(ctx context.Context, r *Runner) error {
	defer close(s.m.done)
	for _, d := range s.m.deps {
		if err := d.await(); err != nil {
			s.m.err = fmt.Errorf("%w: %s", errDep, d.Name())
			if errors.Is(err, ErrStopped) || errors.Is(err, errDep) {
				// Propagate the stop silently; the group already has it.
				s.m.err = err
			}
			return nil
		}
	}
	select {
	case <-r.stopped:
		s.m.err = ErrStopped
		return ErrStopped
	default:
	}

	s.m.fingerprint = s.deriveFingerprint()
	if err := s.produce(ctx, r); err != nil {
		s.m.err = fmt.Errorf("pipeline: stage %s: %w", s.m.name, err)
		return s.m.err
	}
	if s.m.name == r.opts.StopAfter {
		r.logf("stage %s: stop requested — aborting remaining stages", s.m.name)
		r.stopOne()
	}
	return nil
}

// deriveFingerprint hashes the stage identity, its codec identity, its
// config fingerprint, and every upstream artifact hash.
func (s *Stage[T]) deriveFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "stage=%s\n", s.m.name)
	if s.codec != nil {
		fmt.Fprintf(h, "codec=%s/v%d\n", s.codec.Kind, s.codec.Version)
	}
	fmt.Fprintf(h, "config=%s\n", s.m.configFP)
	for _, d := range s.m.deps {
		fmt.Fprintf(h, "dep=%s:%s\n", d.Name(), d.meta().artifactHash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// produce restores the artifact from a matching checkpoint or builds
// and (when persisted) checkpoints it.
func (s *Stage[T]) produce(ctx context.Context, r *Runner) error {
	persisted := s.codec != nil && r.opts.Dir != ""
	if persisted && r.opts.Resume && s.tryRestore(r) {
		return nil
	}
	if persisted && r.opts.Resume && r.opts.Gate != nil {
		if err := s.awaitGate(ctx, r); err != nil {
			return err
		}
		if s.m.restored {
			return nil
		}
	}

	start := time.Now()
	r.logf("stage %s: running (fingerprint %s)", s.m.name, short(s.m.fingerprint))
	out, err := s.build(ctx)
	if err != nil {
		return err
	}
	s.out = out
	took := time.Since(start)

	if !persisted {
		s.m.artifactHash = s.m.fingerprint
		r.logf("stage %s: done in %v", s.m.name, took.Round(time.Millisecond))
		r.opts.Trace.Emit(metrics.Span{
			Time: r.opts.TraceTime, Stage: s.m.name, Event: "executed",
			Attrs: map[string]string{"fingerprint": short(s.m.fingerprint)},
		})
		return nil
	}

	wstart := time.Now()
	data, payloadHash := s.codec.Marshal(s.m.fingerprint, out)
	if err := r.fs.WriteAtomic(s.path(r), data); err != nil {
		return fmt.Errorf("checkpointing: %w", err)
	}
	s.m.artifactHash = payloadHash
	r.logf("stage %s: done in %v, checkpointed %d bytes in %v",
		s.m.name, took.Round(time.Millisecond), len(data), time.Since(wstart).Round(time.Millisecond))
	r.opts.Trace.Emit(metrics.Span{
		Time: r.opts.TraceTime, Stage: s.m.name, Event: "executed",
		Fields: map[string]int64{"artifact_bytes": int64(len(data))},
		Attrs:  map[string]string{"fingerprint": short(s.m.fingerprint)},
	})
	return nil
}

// awaitGate blocks until this process may build the stage (returning
// with restored unset) or another runner's checkpoint lands and restores
// (restored set). Polling is real-time filesystem polling; the gate is
// re-asked every round so steal deadlines can pass ownership here.
func (s *Stage[T]) awaitGate(ctx context.Context, r *Runner) error {
	if r.opts.Gate.Acquire(s.m.name) {
		return nil
	}
	poll := r.opts.GatePoll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	r.logf("stage %s: owned by another runner — waiting for its checkpoint", s.m.name)
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stopped:
			return ErrStopped
		case <-tick.C:
		}
		if s.tryRestore(r) {
			return nil
		}
		if r.opts.Gate.Acquire(s.m.name) {
			return nil
		}
	}
}

// tryRestore loads the stage's checkpoint if it exists, matches the
// snapshot versions, and carries the expected fingerprint. Any mismatch
// is logged and treated as "rebuild", never as an error: stale state
// must not wedge a run.
func (s *Stage[T]) tryRestore(r *Runner) bool {
	path := s.path(r)
	data, err := r.fs.ReadFile(path)
	if err != nil {
		return false
	}
	rstart := time.Now()
	h, rd, payloadHash, err := snapshot.Open(data)
	if err != nil {
		r.logf("stage %s: ignoring checkpoint %s: %v", s.m.name, path, err)
		return false
	}
	if err := s.codec.Check(h); err != nil {
		r.logf("stage %s: ignoring checkpoint %s: %v", s.m.name, path, err)
		return false
	}
	if h.Fingerprint != s.m.fingerprint {
		r.logf("stage %s: checkpoint is stale (fingerprint %s, want %s) — rebuilding",
			s.m.name, short(h.Fingerprint), short(s.m.fingerprint))
		return false
	}
	out, err := s.codec.Decode(rd)
	if err != nil {
		r.logf("stage %s: ignoring undecodable checkpoint %s: %v", s.m.name, path, err)
		return false
	}
	s.out = out
	s.m.artifactHash = payloadHash
	s.m.restored = true
	r.logf("stage %s: restored checkpoint (%d bytes in %v, fingerprint %s) — skipped",
		s.m.name, len(data), time.Since(rstart).Round(time.Millisecond), short(s.m.fingerprint))
	r.opts.Trace.Emit(metrics.Span{
		Time: r.opts.TraceTime, Stage: s.m.name, Event: "restored",
		Fields: map[string]int64{"artifact_bytes": int64(len(data))},
		Attrs:  map[string]string{"fingerprint": short(s.m.fingerprint)},
	})
	return true
}

func (s *Stage[T]) path(r *Runner) string {
	return filepath.Join(r.opts.Dir, s.m.name+".snap")
}

// FanOut registers n sibling persisted stages named "<base>/shard-<i>",
// sharing deps and codec — the dynamic expansion of one logical stage
// into shard sub-stages. Each shard's config fingerprint extends
// configFP with its position, so changing the shard count invalidates
// every shard; per-shard artifacts restore independently, giving
// per-shard resume, and any upstream change cascades through all shards
// to whatever gathers them. build(i) returns shard i's build function.
func FanOut[T any](r *Runner, base, configFP string, n int, deps []Handle, codec *snapshot.Codec[T], build func(i int) func(ctx context.Context) (T, error)) []*Stage[T] {
	out := make([]*Stage[T], n)
	for i := 0; i < n; i++ {
		fp := fmt.Sprintf("%s shard=%d/%d", configFP, i, n)
		out[i] = AddStage(r, fmt.Sprintf("%s/shard-%d", base, i), fp, deps, codec, build(i))
	}
	return out
}

// Handles converts typed stages to dependency handles.
func Handles[T any](stages []*Stage[T]) []Handle {
	out := make([]Handle, len(stages))
	for i, s := range stages {
		out[i] = s
	}
	return out
}
