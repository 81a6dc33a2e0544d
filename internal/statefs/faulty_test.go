package statefs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clientmap/internal/metrics"
	"clientmap/internal/randx"
)

// faultyOver returns a Faulty injecting spec over the real disk, the
// registry its injected faults count into, and a fresh directory.
func faultyOver(t *testing.T, spec string, seed randx.Seed) (*Faulty, *metrics.Registry, string) {
	t.Helper()
	cfg, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	cfg.Seed = seed
	reg := metrics.NewRegistry()
	return NewFaulty(cfg, nil, reg), reg, t.TempDir()
}

func TestFaultyTorn(t *testing.T) {
	f, reg, dir := faultyOver(t, "torn=victim@1", 1)
	path := filepath.Join(dir, "victim.snap")
	data := bytes.Repeat([]byte("checkpoint"), 100)

	err := f.WriteAtomic(path, data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("torn write must leave a destination file: %v", rerr)
	}
	if len(got) >= len(data) {
		t.Fatalf("torn file holds %d bytes, want strictly fewer than %d", len(got), len(data))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("torn file is not a prefix of the written data")
	}
	if n := reg.Snapshot()[KeyTorn]; n != 1 {
		t.Fatalf("%s = %d, want 1", KeyTorn, n)
	}

	// A path the rule does not match writes through untouched.
	other := filepath.Join(dir, "bystander.snap")
	if err := f.WriteAtomic(other, data); err != nil {
		t.Fatalf("bystander write: %v", err)
	}
	if got, _ := os.ReadFile(other); !bytes.Equal(got, data) {
		t.Fatal("bystander file corrupted")
	}
}

func TestFaultyENOSPC(t *testing.T) {
	f, reg, dir := faultyOver(t, "enospc=victim@1", 2)
	path := filepath.Join(dir, "victim.snap")
	data := bytes.Repeat([]byte("checkpoint"), 100)

	err := f.WriteAtomic(path, data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("enospc write error = %v, want ErrInjected", err)
	}
	if _, rerr := os.ReadFile(path); !errors.Is(rerr, os.ErrNotExist) {
		t.Fatalf("enospc must leave the destination untouched, got %v", rerr)
	}
	litter := findLitter(t, dir)
	if len(litter) != 1 {
		t.Fatalf("enospc litter = %v, want exactly one partial temp file", litter)
	}
	got, _ := os.ReadFile(litter[0])
	if len(got) >= len(data) || !bytes.Equal(got, data[:len(got)]) {
		t.Fatalf("enospc litter holds %d bytes, want a strict prefix of %d", len(got), len(data))
	}
	if n := reg.Snapshot()[KeyENOSPC]; n != 1 {
		t.Fatalf("%s = %d, want 1", KeyENOSPC, n)
	}
}

func TestFaultyRenameFail(t *testing.T) {
	f, reg, dir := faultyOver(t, "rename-fail=victim@1", 3)
	path := filepath.Join(dir, "victim.snap")
	data := []byte("complete checkpoint bytes")

	err := f.WriteAtomic(path, data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("rename-fail write error = %v, want ErrInjected", err)
	}
	if _, rerr := os.ReadFile(path); !errors.Is(rerr, os.ErrNotExist) {
		t.Fatalf("rename-fail must leave the destination untouched, got %v", rerr)
	}
	litter := findLitter(t, dir)
	if len(litter) != 1 {
		t.Fatalf("rename-fail litter = %v, want exactly one temp file", litter)
	}
	if got, _ := os.ReadFile(litter[0]); !bytes.Equal(got, data) {
		t.Fatal("rename-fail litter must hold the complete data")
	}
	if n := reg.Snapshot()[KeyRenameFail]; n != 1 {
		t.Fatalf("%s = %d, want 1", KeyRenameFail, n)
	}
}

func TestFaultyBitrot(t *testing.T) {
	f, reg, dir := faultyOver(t, "bitrot=victim@1", 4)
	path := filepath.Join(dir, "victim.snap")
	data := bytes.Repeat([]byte("checkpoint"), 100)

	if err := f.WriteAtomic(path, data); err != nil {
		t.Fatalf("bitrot must report success, got %v", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != len(data) {
		t.Fatalf("bitrot file is %d bytes, want %d", len(got), len(data))
	}
	diff := 0
	at := -1
	for i := range got {
		if got[i] != data[i] {
			diff++
			at = i
		}
	}
	if diff != 1 {
		t.Fatalf("bitrot changed %d bytes, want exactly 1", diff)
	}
	if at < len(data)/2 {
		t.Fatalf("bitrot flipped offset %d, want the upper half (>= %d)", at, len(data)/2)
	}
	if b := got[at] ^ data[at]; b&(b-1) != 0 {
		t.Fatalf("bitrot flipped more than one bit: %08b", b)
	}
	if n := reg.Snapshot()[KeyBitrot]; n != 1 {
		t.Fatalf("%s = %d, want 1", KeyBitrot, n)
	}
}

func TestFaultySlow(t *testing.T) {
	f, reg, dir := faultyOver(t, "slow=victim@30ms", 5)
	slow := filepath.Join(dir, "victim.snap")
	fast := filepath.Join(dir, "bystander.snap")

	start := time.Now()
	if err := f.WriteAtomic(slow, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("slow write took %v, want >= 30ms", took)
	}
	if err := f.WriteAtomic(fast, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(slow); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot()[KeySlowed]; n != 2 {
		t.Fatalf("%s = %d, want 2 (one write, one read)", KeySlowed, n)
	}
}

// Decisions are a pure hash of (seed, op, path, attempt): two Faulty
// instances with the same seed injure the same operations, and a
// different seed draws a different schedule.
func TestFaultyDeterminism(t *testing.T) {
	dir := t.TempDir()
	run := func(seed randx.Seed) []bool {
		cfg, err := Parse("torn=@0.5")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		f := NewFaulty(cfg, nil, nil)
		var hits []bool
		for i := 0; i < 32; i++ {
			path := filepath.Join(dir, "s", "stage-"+string(rune('a'+i%8))+".snap")
			err := f.WriteAtomic(path, []byte("data"))
			hits = append(hits, errors.Is(err, ErrInjected))
		}
		return hits
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew an identical 32-op fault schedule (suspicious)")
	}
	// Rate 0.5 over 32 draws: both outcomes must occur.
	torn := 0
	for _, h := range a {
		if h {
			torn++
		}
	}
	if torn == 0 || torn == len(a) {
		t.Fatalf("rate 0.5 produced %d/%d hits", torn, len(a))
	}
}

// The attempt counter advances per (op, path): with a rule keyed to
// fire only sometimes, retrying the same path eventually succeeds —
// the property resume-after-crash relies on.
func TestFaultyAttemptAdvances(t *testing.T) {
	f, _, dir := faultyOver(t, "torn=@0.5", 7)
	path := filepath.Join(dir, "retry.snap")
	sawFail, sawOK := false, false
	for i := 0; i < 64 && !(sawFail && sawOK); i++ {
		if err := f.WriteAtomic(path, []byte("data")); err != nil {
			sawFail = true
		} else {
			sawOK = true
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("64 attempts at rate 0.5: fail=%v ok=%v — attempt not in the key?", sawFail, sawOK)
	}
}

func TestFaultyCreateExclusive(t *testing.T) {
	f, _, dir := faultyOver(t, "enospc=claim@1", 8)
	path := filepath.Join(dir, "claim.steal")
	if err := f.CreateExclusive(path, []byte("1\n")); !errors.Is(err, ErrInjected) {
		t.Fatalf("CreateExclusive = %v, want ErrInjected", err)
	}
	if _, err := os.ReadFile(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("injected CreateExclusive failure must not leave a partial claim")
	}
	// Pass-through when no rule matches.
	ok := filepath.Join(dir, "other.steal")
	if err := f.CreateExclusive(ok, []byte("1\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateExclusive(ok, []byte("2\n")); !errors.Is(err, os.ErrExist) {
		t.Fatalf("second CreateExclusive = %v, want ErrExist", err)
	}
}

func findLitter(t *testing.T, dir string) []string {
	t.Helper()
	var litter []string
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && strings.Contains(de.Name(), ".tmp-") {
			litter = append(litter, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return litter
}
