package statefs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDiskWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deep", "state.snap")
	var d Disk

	if err := d.WriteAtomic(path, []byte("one")); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	got, err := d.ReadFile(path)
	if err != nil || string(got) != "one" {
		t.Fatalf("ReadFile = %q, %v, want \"one\"", got, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", info.Mode().Perm())
	}

	// Replacement is in-place and leaves no temp litter.
	if err := d.WriteAtomic(path, []byte("two")); err != nil {
		t.Fatalf("WriteAtomic replace: %v", err)
	}
	if got, _ := d.ReadFile(path); string(got) != "two" {
		t.Fatalf("after replace = %q, want \"two\"", got)
	}
	assertNoLitter(t, dir)
}

func assertNoLitter(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && strings.Contains(de.Name(), ".tmp-") {
			t.Errorf("temp litter left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Concurrent writers to one path must each succeed, leave one of the
// written values, and leave no litter — the property shard runners
// doing duplicate builds rely on.
func TestDiskWriteAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.snap")
	var d Disk
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('a' + i)}, 4096)
			errs[i] = d.WriteAtomic(path, data)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := d.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4096 {
		t.Fatalf("final file is %d bytes, want 4096 (torn interleave?)", len(got))
	}
	for _, b := range got {
		if b != got[0] {
			t.Fatalf("final file mixes writers' bytes: %q vs %q", b, got[0])
		}
	}
	assertNoLitter(t, dir)
}

func TestDiskCreateExclusive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "claim.steal")
	var d Disk
	if err := d.CreateExclusive(path, []byte("3\n")); err != nil {
		t.Fatalf("CreateExclusive: %v", err)
	}
	if err := d.CreateExclusive(path, []byte("4\n")); !errors.Is(err, os.ErrExist) {
		t.Fatalf("second CreateExclusive = %v, want ErrExist", err)
	}
	if got, _ := d.ReadFile(path); string(got) != "3\n" {
		t.Fatalf("claim = %q, want first writer's content", got)
	}
}

func TestOr(t *testing.T) {
	if _, ok := Or(nil).(Disk); !ok {
		t.Fatalf("Or(nil) = %T, want Disk", Or(nil))
	}
	f := NewFaulty(Config{}, nil, nil)
	if Or(f) != FS(f) {
		t.Fatal("Or must pass a non-nil FS through")
	}
}

func TestDiskReadDirAndRemove(t *testing.T) {
	dir := t.TempDir()
	var d Disk
	if err := d.MkdirAll(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAtomic(filepath.Join(dir, "a.snap"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	ents, err := d.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("ReadDir = %v, want [a.snap sub]", names)
	}
	if err := d.Remove(filepath.Join(dir, "a.snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadFile(filepath.Join(dir, "a.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadFile after Remove = %v, want ErrNotExist", err)
	}
	if _, err := d.ReadDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadDir missing = %v, want ErrNotExist", err)
	}
}
