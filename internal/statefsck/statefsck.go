// Package statefsck is the state-directory scanner/repairer: the tool
// that turns "the disk lied to a campaign" from a stranded run into a
// diagnosis and a repair. It walks a pipeline state directory (see
// internal/pipeline), classifies every file — valid checkpoint, corrupt
// container, version mismatch, orphaned temp file, satisfied steal
// claim, delta whose base hash no longer verifies — and, in repair
// mode, quarantines bad checkpoints and sweeps litter so the next
// -resume rebuilds exactly the damaged suffix instead of wedging or
// silently trusting rot.
//
// Repair invariants:
//
//   - Repair never deletes a checkpoint: bad snapshots move to the
//     quarantine/ subdirectory (flattened name), preserving the
//     evidence; only temp litter and satisfied claims are removed.
//   - Repair only subtracts. It never writes or rewrites a checkpoint,
//     so running it cannot make a state directory less consistent than
//     it found it — the crash-only property.
//   - Lineage is read from what checkpoints record, never from stage
//     names: a delta is kept only while its recorded base is the payload
//     hash of a healthy checkpoint that is kept itself, back to one that
//     records no base. Every other delta is quarantined, and with it
//     every delta built on it, leaving each chain's longest prefix that
//     still verifies.
//   - Everything it does not understand is kept ("aux"): fsck's
//     ignorance must never destroy state.
//
// A report is deterministic for a given directory state: findings are
// sorted by path and carry no timestamps, so two scans of the same
// damage render byte-identical text and JSON.
package statefsck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"clientmap/internal/serve"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefs"
	"clientmap/internal/stream"
)

// Class is a file's classification.
type Class string

const (
	// ClassValid is a checkpoint whose container parses, whose checksum
	// matches, and whose payload decodes under the registered codec.
	// (Whether its fingerprint matches the current configuration is the
	// pipeline's business, not fsck's.)
	ClassValid Class = "valid"
	// ClassCorrupt is a truncated, checksum-failing or undecodable
	// snapshot — torn writes and bit rot land here.
	ClassCorrupt Class = "corrupt"
	// ClassVersionMismatch is a container written by a different format
	// or artifact version.
	ClassVersionMismatch Class = "version-mismatch"
	// ClassOrphanTmp is temp-file litter (*.tmp-*) left by a killed or
	// fault-stopped writer.
	ClassOrphanTmp Class = "orphan-tmp"
	// ClassStaleClaim is a steal-claim file whose stage checkpoint
	// exists and verifies: the claim has served its purpose.
	ClassStaleClaim Class = "stale-claim"
	// ClassBrokenChain is a structurally valid delta checkpoint whose
	// recorded base leads to no kept checkpoint.
	ClassBrokenChain Class = "broken-chain"
	// ClassAux is everything fsck deliberately leaves alone: traces,
	// metrics, quarantined files, claims still in flight, foreign files.
	ClassAux Class = "aux"
)

// Action is what Scan plans (and Repair executes) for a finding.
type Action string

const (
	ActionKeep       Action = "keep"
	ActionSweep      Action = "sweep"
	ActionQuarantine Action = "quarantine"
)

// Finding is one file's classification.
type Finding struct {
	// Path is relative to the scanned directory, '/'-separated.
	Path   string `json:"path"`
	Class  Class  `json:"class"`
	Action Action `json:"action"`
	Detail string `json:"detail,omitempty"`
	// Applied reports whether Repair executed the action.
	Applied bool `json:"applied,omitempty"`
}

// Report is the result of a Scan or Repair, deterministic for a given
// directory state (findings sorted by path, no timestamps).
type Report struct {
	Dir      string    `json:"dir"`
	Findings []Finding `json:"findings"`
}

// Options tune a scan.
type Options struct {
	// MinTmpAge protects temp files younger than this from sweeping: in
	// a shared state directory another runner may be mid-write. The
	// automatic resume-time fsck passes one minute; 0 sweeps all litter
	// (the explicit-cmd default, where the operator knows the fleet is
	// down).
	MinTmpAge time.Duration
}

// quarantineDir is where Repair moves bad checkpoints, flattened.
const quarantineDir = "quarantine"

// skipDirs are top-level directories fsck records as aux and does not
// descend into: their contents are not checkpoint state.
var skipDirs = map[string]string{
	quarantineDir: "previously quarantined files",
	"traces":      "generated DITL root traces",
	"metrics":     "trace span logs",
}

// checker is a codec with its payload type erased: what a deep check
// needs of a kind.
type checker interface {
	ID() string
	Check(snapshot.Header) error
	DecodeBase(*snapshot.Reader) (base string, err error)
}

// codecs are the kinds fsck deep-checks, each its owner's one codec
// value. Kinds not listed (a package's private composites) are checked
// by checksum alone.
var codecs = []checker{
	snapshot.CampaignCodec, snapshot.PassDeltaCodec, snapshot.ShardResultCodec,
	snapshot.DNSLogsCodec, snapshot.CDNCodec, snapshot.APNICCodec, snapshot.ASDBCodec,
	snapshot.PrefixDatasetCodec, snapshot.ASDatasetCodec,
	stream.HourDeltaCodec, serve.ClientMapCodec,
}

func codecFor(kind string) checker {
	for _, c := range codecs {
		if c.ID() == kind {
			return c
		}
	}
	return nil
}

// snapInfo is what the walk records per .snap file for the lineage and
// claim passes.
type snapInfo struct {
	stage   string // relative path minus ".snap"
	hash    string // payload hash, whenever the container opened
	base    string // recorded delta base, healthy deltas only
	idx     int    // index into Report.Findings
	healthy bool
}

// scanner carries one walk's state.
type scanner struct {
	fs       statefs.FS
	dir      string
	opts     Options
	now      time.Time
	findings []Finding
	snaps    map[string]*snapInfo // by stage name
	claims   []int                // finding indices of .steal files
}

// Scan walks dir and classifies every file without touching anything.
// A missing directory yields an empty report: nothing to check is not
// an error (first run with -resume).
func Scan(fsys statefs.FS, dir string, opts Options) (*Report, error) {
	s := &scanner{fs: statefs.Or(fsys), dir: dir, opts: opts, now: time.Now(), snaps: make(map[string]*snapInfo)}
	if err := s.walk(""); err != nil {
		return nil, err
	}
	s.lineage()
	s.resolveClaims()
	sort.Slice(s.findings, func(i, j int) bool { return s.findings[i].Path < s.findings[j].Path })
	return &Report{Dir: dir, Findings: s.findings}, nil
}

// Repair scans and then executes the planned actions: sweeps are
// removed, quarantines are renamed into quarantine/ (flattened path).
// A failed action downgrades to a kept finding with the error in the
// detail — repair must never wedge on a half-broken filesystem.
func Repair(fsys statefs.FS, dir string, opts Options) (*Report, error) {
	rep, err := Scan(fsys, dir, opts)
	if err != nil {
		return nil, err
	}
	fs := statefs.Or(fsys)
	for i := range rep.Findings {
		f := &rep.Findings[i]
		abs := filepath.Join(dir, filepath.FromSlash(f.Path))
		var err error
		switch f.Action {
		case ActionSweep:
			err = fs.Remove(abs)
		case ActionQuarantine:
			qdir := filepath.Join(dir, quarantineDir)
			if err = fs.MkdirAll(qdir); err == nil {
				err = fs.Rename(abs, filepath.Join(qdir, strings.ReplaceAll(f.Path, "/", "__")))
			}
		default:
			continue
		}
		if err != nil {
			f.Detail += fmt.Sprintf("; %s failed: %v", f.Action, err)
		} else {
			f.Applied = true
		}
	}
	return rep, nil
}

func (s *scanner) add(f Finding) int {
	s.findings = append(s.findings, f)
	return len(s.findings) - 1
}

func (s *scanner) walk(rel string) error {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, filepath.FromSlash(rel)))
	if err != nil {
		if rel == "" && errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		sub := name
		if rel != "" {
			sub = rel + "/" + name
		}
		if e.IsDir() {
			if rel == "" {
				if why, skip := skipDirs[name]; skip {
					s.add(Finding{Path: sub + "/", Class: ClassAux, Action: ActionKeep, Detail: why})
					continue
				}
			}
			if err := s.walk(sub); err != nil {
				return err
			}
			continue
		}
		s.classify(sub, e)
	}
	return nil
}

func (s *scanner) classify(rel string, e os.DirEntry) {
	base := filepath.Base(rel)
	switch {
	case strings.Contains(base, ".tmp-"):
		s.classifyTmp(rel, e)
	case strings.HasSuffix(base, claimExt):
		s.claims = append(s.claims, s.add(Finding{
			Path: rel, Class: ClassAux, Action: ActionKeep,
			Detail: "steal claim — stage not checkpointed, owner may be mid-build",
		}))
	case strings.HasSuffix(base, ".snap"):
		s.classifySnap(rel)
	default:
		s.add(Finding{Path: rel, Class: ClassAux, Action: ActionKeep, Detail: "not checkpoint state"})
	}
}

func (s *scanner) classifyTmp(rel string, e os.DirEntry) {
	if s.opts.MinTmpAge > 0 {
		if info, err := e.Info(); err == nil && s.now.Sub(info.ModTime()) < s.opts.MinTmpAge {
			s.add(Finding{
				Path: rel, Class: ClassOrphanTmp, Action: ActionKeep,
				Detail: fmt.Sprintf("temp file younger than %s — a live writer may own it", s.opts.MinTmpAge),
			})
			return
		}
	}
	s.add(Finding{Path: rel, Class: ClassOrphanTmp, Action: ActionSweep,
		Detail: "temp litter from a dead writer"})
}

func (s *scanner) classifySnap(rel string) {
	info := &snapInfo{stage: strings.TrimSuffix(rel, ".snap")}
	class, detail := s.checkSnap(rel, info)
	action := ActionQuarantine
	if class == ClassValid {
		action, info.healthy = ActionKeep, true
	}
	info.idx = s.add(Finding{Path: rel, Class: class, Action: action, Detail: detail})
	s.snaps[info.stage] = info
}

// checkSnap reads and deep-checks one checkpoint, recording its payload
// hash and the base it records in info.
func (s *scanner) checkSnap(rel string, info *snapInfo) (Class, string) {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, filepath.FromSlash(rel)))
	if err != nil {
		return ClassCorrupt, "unreadable: " + err.Error()
	}
	h, r, hash, err := snapshot.Open(data)
	if errors.Is(err, snapshot.ErrVersionMismatch) {
		return ClassVersionMismatch, err.Error()
	} else if err != nil {
		return ClassCorrupt, err.Error()
	}
	info.hash = hash
	c := codecFor(h.Kind)
	if c == nil {
		return ClassValid, fmt.Sprintf("%s v%d, checksum ok (kind not deep-checked)", h.Kind, h.Version)
	}
	if err := c.Check(h); err != nil {
		return ClassVersionMismatch, err.Error()
	}
	if info.base, err = c.DecodeBase(r); err != nil {
		return ClassCorrupt, "checksum ok but payload does not decode: " + err.Error()
	}
	detail := fmt.Sprintf("%s v%d", h.Kind, h.Version)
	if info.base != "" {
		detail += fmt.Sprintf(", base %.12s", info.base)
	}
	return ClassValid, detail
}

// lineage keeps a healthy delta only while its recorded base is the
// payload hash of a healthy checkpoint that is kept itself; the roots are
// the healthy checkpoints that record no base. Every other delta — so
// also every delta built on one — is reclassified broken-chain and
// quarantined: resume then rebuilds exactly the damaged suffix.
func (s *scanner) lineage() {
	byHash := make(map[string]*snapInfo)     // opened checkpoints, first stage by name
	children := make(map[string][]*snapInfo) // healthy deltas by recorded base
	var reached []string                     // payload hashes a delta may build on
	for _, in := range s.snaps {
		if q := byHash[in.hash]; in.hash != "" && (q == nil || in.stage < q.stage) {
			byHash[in.hash] = in
		}
		switch {
		case !in.healthy:
		case in.base == "":
			reached = append(reached, in.hash)
		default:
			children[in.base] = append(children[in.base], in)
		}
	}
	for len(reached) > 0 {
		h := reached[len(reached)-1]
		reached = reached[:len(reached)-1]
		for _, d := range children[h] {
			reached = append(reached, d.hash)
		}
		delete(children, h)
	}
	// What is left never reached a root.
	cut := make(map[*snapInfo]bool)
	for _, ds := range children {
		for _, d := range ds {
			cut[d] = true
		}
	}
	for d := range cut {
		f := &s.findings[d.idx]
		f.Class, f.Action, d.healthy = ClassBrokenChain, ActionQuarantine, false
		f.Detail = fmt.Sprintf("base %.12s does not match any valid checkpoint", d.base)
		if p := byHash[d.base]; p != nil {
			why := "was cut"
			if !cut[p] {
				why = "is " + string(s.findings[p.idx].Class)
			}
			f.Detail = fmt.Sprintf("built on %s, which %s", p.stage, why)
		}
	}
}

// claimExt marks a steal-claim file.
const claimExt = ".steal"

// ClaimFile names a stage's steal-claim file: the stage name with '/'
// flattened to '_'. Shard runners create it when they steal the stage;
// fsck sweeps it once the stage's checkpoint verifies.
func ClaimFile(stage string) string { return strings.ReplaceAll(stage, "/", "_") + claimExt }

// resolveClaims marks steal claims whose stage checkpoint exists and
// verifies as stale (sweep). fsck applies ClaimFile to every known-good
// stage rather than trying to invert the ambiguous flattening.
func (s *scanner) resolveClaims() {
	satisfied := make(map[string]string) // claim base name -> stage
	for stage, info := range s.snaps {
		if info.healthy {
			satisfied[ClaimFile(stage)] = stage
		}
	}
	for _, idx := range s.claims {
		f := &s.findings[idx]
		if stage, ok := satisfied[filepath.Base(f.Path)]; ok {
			f.Class = ClassStaleClaim
			f.Action = ActionSweep
			f.Detail = fmt.Sprintf("claim satisfied: %s checkpoint is valid", stage)
		}
	}
}
