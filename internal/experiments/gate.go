package experiments

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/statefs"
	"clientmap/internal/statefsck"
)

// gate returns the cross-process stage gate of a shard runner, nil
// outside shard-runner mode (a nil pipeline.Options.Gate disables
// coordination entirely — the single-process paths are untouched).
func (c Config) gate() pipeline.Gate {
	if !c.shardRunner() {
		return nil
	}
	dir := c.ShardDir
	if dir == "" {
		dir = filepath.Join(c.StateDir, "shards")
	}
	return newFileGate(c.fs(), dir, c.ShardIndex, c.Shards, c.ShardStealAfter)
}

// fileGate implements pipeline.Gate for shard runners sharing one state
// directory. Ownership is hashed: stage s belongs to runner
// fnv64a(s) mod shards, so every persisted stage — the shard sub-stages
// and the singletons (pre-scan, calibration, the gathers, the DITL
// crawl, the baselines, the views) — lands on exactly one runner with
// no coordination. A non-owner waits for the owner's checkpoint; once
// the owner has been silent past a deadline staggered by ring distance
// (the owner's successor moves first, then its successor, and so on)
// the stage is stolen, claimed exactly once through an O_EXCL claim
// file shared by all runners. Duplicate builds would be harmless —
// artifacts are deterministic and written atomically — so the claim
// file buys economy and exactly-once accounting, not correctness.
type fileGate struct {
	fs         statefs.FS
	dir        string
	index      int
	shards     int
	stealAfter time.Duration

	mu        sync.Mutex
	firstSeen map[string]time.Time
}

func newFileGate(fsys statefs.FS, dir string, index, shards int, stealAfter time.Duration) *fileGate {
	return &fileGate{
		fs:         statefs.Or(fsys),
		dir:        dir,
		index:      index,
		shards:     shards,
		stealAfter: stealAfter,
		firstSeen:  make(map[string]time.Time),
	}
}

// owner returns the runner index a stage hashes to.
func (g *fileGate) owner(stage string) int {
	return int(randx.FNV64a([]byte(stage)) % uint64(g.shards))
}

// Acquire implements pipeline.Gate: true means "this runner builds the
// stage now". Called from concurrent stage goroutines, once per poll
// round while a stage waits.
func (g *fileGate) Acquire(stage string) bool {
	owner := g.owner(stage)
	if owner == g.index {
		return true
	}
	g.mu.Lock()
	first, ok := g.firstSeen[stage]
	if !ok {
		first = time.Now()
		g.firstSeen[stage] = first
	}
	g.mu.Unlock()
	// Ring distance staggers steal deadlines: the owner's next neighbor
	// on the ring waits one stealAfter, the one after it two, … so a
	// straggler's stage is picked up by one runner, not a stampede.
	dist := (g.index - owner + g.shards) % g.shards
	if time.Since(first) < time.Duration(dist)*g.stealAfter {
		return false
	}
	return g.claim(stage)
}

// claim records the steal exactly once per campaign via an O_EXCL claim
// file. Losing the creation race (or any filesystem error) means "keep
// waiting": some other runner claimed the stage and is building it.
func (g *fileGate) claim(stage string) bool {
	if err := g.fs.MkdirAll(g.dir); err != nil {
		return false
	}
	path := filepath.Join(g.dir, statefsck.ClaimFile(stage))
	if err := g.fs.CreateExclusive(path, []byte(fmt.Sprintf("%d\n", g.index))); err == nil {
		return true
	}
	// A claim this runner wrote before a kill is still its own: honoring
	// it on resume keeps a restarted stealer from waiting on itself.
	if b, rerr := g.fs.ReadFile(path); rerr == nil && strings.TrimSpace(string(b)) == strconv.Itoa(g.index) {
		return true
	}
	return false
}
