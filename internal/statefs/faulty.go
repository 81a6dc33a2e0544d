package statefs

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"clientmap/internal/metrics"
)

// ErrInjected marks a failure manufactured by Faulty. Callers treat it
// exactly like a real disk error — the point of the seam — but tests
// can tell an injected crash from an accidental one.
var ErrInjected = errors.New("statefs: injected disk fault")

// Faulty wraps an FS and injects the Config's disk faults. Every
// decision is a pure hash of (seed, op, path, attempt) — the attempt
// counter is per (op, path), so "the 3rd write of probe-pass-1.snap is
// torn" holds in every schedule — which is what makes a crash×disk-fault
// matrix reproducible enough to assert byte-identical convergence.
//
// Fault semantics, all applied at WriteAtomic (reads and renames only
// ever see slow): torn writes a hash-chosen prefix of the data to the
// destination itself and fails — the atomicity violation a non-syncing
// filesystem can surface after a host crash; enospc leaves a partial
// *.tmp-* file and fails with the destination untouched; rename-fail
// leaves a complete *.tmp-* file and fails; bitrot flips one
// hash-chosen bit and succeeds silently. The flip is biased into the
// upper half of the file: for snapshot containers that is payload
// territory, where only the checksum can catch it — a flip in the
// header's fingerprint would merely read as a stale checkpoint, which
// the pipeline already tolerates by design.
type Faulty struct {
	inner FS
	cfg   Config

	mu       sync.Mutex
	attempts map[string]int

	torn, enospc, renameFail, bitrot, slowed *metrics.Counter
}

// The disk-fault ledger keys: one metrics-registry counter per injected
// fault kind. They lie outside the campaign ledger's key spaces, so they
// show on the debug endpoint and never in a checkpoint or -metrics-json.
const (
	KeyTorn       = "statefs/faults/torn"
	KeyENOSPC     = "statefs/faults/enospc"
	KeyRenameFail = "statefs/faults/rename_fail"
	KeyBitrot     = "statefs/faults/bitrot"
	KeySlowed     = "statefs/faults/slowed"
)

// NewFaulty returns a Faulty injecting cfg over inner (Disk when nil).
// Every injected fault counts into reg under the keys above (nil
// discards).
func NewFaulty(cfg Config, inner FS, reg *metrics.Registry) *Faulty {
	return &Faulty{
		inner: Or(inner), cfg: cfg, attempts: make(map[string]int),
		torn:       reg.Counter(KeyTorn),
		enospc:     reg.Counter(KeyENOSPC),
		renameFail: reg.Counter(KeyRenameFail),
		bitrot:     reg.Counter(KeyBitrot),
		slowed:     reg.Counter(KeySlowed),
	}
}

// attempt returns the 0-based sequence number of this (op, path) pair.
func (f *Faulty) attempt(op, path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := op + "\x00" + path
	n := f.attempts[k]
	f.attempts[k] = n + 1
	return n
}

// key builds the decision key "disk/<kind>/<attempt>/<op>/<path>".
// Byte-built with the variable field leading the fixed tail, like every
// other per-event fault key (see faults.Brownout.severity).
func key(kind string, attempt int, op, path string) []byte {
	var kb [96]byte
	k := append(kb[:0], "disk/"...)
	k = append(k, kind...)
	k = append(k, '/')
	k = strconv.AppendInt(k, int64(attempt), 10)
	k = append(k, '/')
	k = append(k, op...)
	k = append(k, '/')
	k = append(k, path...)
	return k
}

// hit reports whether any rule of the kind fires for this operation.
// One hash per kind: with several matching rules the draw is shared, so
// the effective rate is the largest matching rate.
func (f *Faulty) hit(kind string, rules []Rule, op, path string, attempt int) bool {
	u := -1.0
	for _, r := range rules {
		if !strings.Contains(path, r.Match) {
			continue
		}
		if u < 0 {
			u = f.cfg.Seed.HashUnitB(key(kind, attempt, op, path))
		}
		if u < r.Rate {
			return true
		}
	}
	return false
}

// sleep applies the longest matching slow rule.
func (f *Faulty) sleep(path string) {
	var d time.Duration
	for _, s := range f.cfg.Slow {
		if strings.Contains(path, s.Match) && s.Delay > d {
			d = s.Delay
		}
	}
	if d > 0 {
		f.slowed.Inc()
		time.Sleep(d)
	}
}

// cut returns a hash-chosen prefix length in [0, n), the point a torn
// or out-of-space write stopped at. Always strictly short of n so the
// injected file is genuinely incomplete.
func (f *Faulty) cut(kind string, n, attempt int, op, path string) int {
	if n == 0 {
		return 0
	}
	c := int(f.cfg.Seed.HashUnitB(key(kind+"-cut", attempt, op, path)) * float64(n))
	if c >= n {
		c = n - 1
	}
	return c
}

// ReadFile implements FS (slow rules only).
func (f *Faulty) ReadFile(path string) ([]byte, error) {
	f.attempt("read", path)
	f.sleep(path)
	return f.inner.ReadFile(path)
}

// WriteAtomic implements FS with the Config's write faults.
func (f *Faulty) WriteAtomic(path string, data []byte) error {
	n := f.attempt("write", path)
	f.sleep(path)
	switch {
	case f.hit("enospc", f.cfg.ENOSPC, "write", path, n):
		c := f.cut("enospc", len(data), n, "write", path)
		// Materialize the partial temp file a real ENOSPC leaves behind.
		// The litter itself is written atomically (it stands in for a
		// file whose write already stopped).
		_ = f.inner.WriteAtomic(tmpName(path, n), data[:c])
		f.enospc.Inc()
		return fmt.Errorf("%w: no space after %d of %d bytes of %s", ErrInjected, c, len(data), path)
	case f.hit("rename-fail", f.cfg.RenameFail, "write", path, n):
		_ = f.inner.WriteAtomic(tmpName(path, n), data)
		f.renameFail.Inc()
		return fmt.Errorf("%w: rename into %s failed", ErrInjected, path)
	case f.hit("torn", f.cfg.Torn, "write", path, n):
		c := f.cut("torn", len(data), n, "write", path)
		_ = f.inner.WriteAtomic(path, data[:c])
		f.torn.Inc()
		return fmt.Errorf("%w: torn write of %s (%d of %d bytes)", ErrInjected, path, c, len(data))
	case f.hit("bitrot", f.cfg.Bitrot, "write", path, n):
		b := append([]byte(nil), data...)
		if len(b) > 0 {
			h := f.cfg.Seed.Hash64B(key("bitrot-at", n, "write", path))
			half := len(b) / 2
			off := half + int(h%uint64(len(b)-half))
			b[off] ^= 1 << ((h >> 32) & 7)
		}
		f.bitrot.Inc()
		return f.inner.WriteAtomic(path, b)
	}
	return f.inner.WriteAtomic(path, data)
}

// tmpName is the litter filename an injected partial write leaves. It
// carries the ".tmp-" marker statefsck sweeps.
func tmpName(path string, attempt int) string {
	return fmt.Sprintf("%s.tmp-injected-%d", path, attempt)
}

// CreateExclusive implements FS. Claim files fail cleanly (no litter):
// a partially written claim would wedge the gate's collision re-read,
// which is a liveness bug in the consumer, not a fault shape this layer
// wants to manufacture.
func (f *Faulty) CreateExclusive(path string, data []byte) error {
	n := f.attempt("create", path)
	f.sleep(path)
	if f.hit("enospc", f.cfg.ENOSPC, "create", path, n) {
		f.enospc.Inc()
		return fmt.Errorf("%w: no space creating %s", ErrInjected, path)
	}
	return f.inner.CreateExclusive(path, data)
}

// MkdirAll implements FS (pass-through).
func (f *Faulty) MkdirAll(path string) error { return f.inner.MkdirAll(path) }

// Remove implements FS (pass-through).
func (f *Faulty) Remove(path string) error { return f.inner.Remove(path) }

// Rename implements FS (slow rules only; torn/rename-fail target
// WriteAtomic, the operation campaigns actually crash in).
func (f *Faulty) Rename(oldpath, newpath string) error {
	f.sleep(newpath)
	return f.inner.Rename(oldpath, newpath)
}

// ReadDir implements FS (pass-through).
func (f *Faulty) ReadDir(path string) ([]os.DirEntry, error) { return f.inner.ReadDir(path) }
