package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func mustOpen(t *testing.T, fsys FS, path string) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return f
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fsys := OS{}
	f := mustOpen(t, fsys, path)
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
}

func TestFaultRuleFiresOnNthMatch(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS{})
	fsys.Inject(Rule{Op: OpWrite, Path: "target", N: 2, Err: syscall.EIO})

	f := mustOpen(t, fsys, filepath.Join(dir, "target"))
	defer f.Close()
	other := mustOpen(t, fsys, filepath.Join(dir, "other"))
	defer other.Close()

	if _, err := f.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("write 1 should pass: %v", err)
	}
	// A non-matching path must not consume the rule's count.
	if _, err := other.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("other-path write should pass: %v", err)
	}
	if _, err := f.WriteAt([]byte("b"), 1); !errors.Is(err, syscall.EIO) {
		t.Fatalf("write 2 should inject EIO, got %v", err)
	}
	if _, err := f.WriteAt([]byte("c"), 1); err != nil {
		t.Fatalf("write 3 should pass (rule not sticky): %v", err)
	}
	if got := fsys.Injected(); len(got) != 1 {
		t.Fatalf("Injected = %v, want one entry", got)
	}
}

func TestStickyRuleKeepsFiring(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS{})
	fsys.Inject(Rule{Op: OpSync, N: 2, Err: syscall.ENOSPC, Sticky: true})
	f := mustOpen(t, fsys, filepath.Join(dir, "f"))
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("sync %d should inject ENOSPC, got %v", i+2, err)
		}
	}
}

func TestShortWriteTearsRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fsys := NewFaultFS(OS{})
	fsys.Inject(Rule{Op: OpWrite, Short: 3, Err: syscall.ENOSPC})
	f := mustOpen(t, fsys, path)
	n, err := f.WriteAt([]byte("abcdef"), 0)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if n != 3 {
		t.Fatalf("want 3 bytes through, got %d", n)
	}
	f.Close()
	data, _ := fsys.ReadFile(path)
	if string(data) != "abc" {
		t.Fatalf("on-disk bytes = %q, want torn prefix \"abc\"", data)
	}
}

func TestCrashTruncatesToDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fsys := NewFaultFS(OS{})
	f := mustOpen(t, fsys, path)
	if _, err := f.WriteAt([]byte("durable!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("lost"), 8); err != nil {
		t.Fatal(err)
	}
	// No sync after the second write: a power loss may drop it.
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if !fsys.Crashed() {
		t.Fatal("Crashed() = false after SimulateCrash")
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash = %v, want ErrCrashed", err)
	}
	if _, err := fsys.OpenFile(path, os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash should fail with ErrCrashed")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable!" {
		t.Fatalf("survived bytes = %q, want only the synced prefix", data)
	}
}

func TestCrashRulePoisonsEverything(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS{})
	fsys.Inject(Rule{Op: OpRename, Crash: true})
	f := mustOpen(t, fsys, filepath.Join(dir, "f"))
	f.Close()
	if err := fsys.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "g")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename = %v, want ErrCrashed", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o755); !errors.Is(err, ErrCrashed) {
		t.Fatalf("mkdir after crash = %v, want ErrCrashed", err)
	}
}

func TestRenameCarriesWatermarks(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS{})
	oldPath := filepath.Join(dir, "old")
	newPath := filepath.Join(dir, "new")
	f := mustOpen(t, fsys, oldPath)
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close() // close does not sync: nothing durable yet
	if err := fsys.Rename(oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("unsynced bytes survived the crash under the new name: %q", data)
	}
}

func TestPreexistingBytesAreDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("previous-process"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := NewFaultFS(OS{})
	f := mustOpen(t, fsys, path)
	if _, err := f.WriteAt([]byte("-new"), 16); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fsys.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "previous-process" {
		t.Fatalf("crash kept %q, want the preexisting bytes only", data)
	}
}

func TestChaosDeterministicForSeed(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		fsys := NewFaultFS(OS{})
		fsys.SetChaos(42, 0.3, OpWrite)
		f := mustOpen(t, fsys, filepath.Join(dir, "f"))
		defer f.Close()
		var outcomes []string
		for i := 0; i < 20; i++ {
			if _, err := f.WriteAt([]byte("x"), int64(i)); err != nil {
				outcomes = append(outcomes, "fail")
			} else {
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaos not deterministic at op %d: %v vs %v", i, a, b)
		}
	}
	fsys := NewFaultFS(OS{})
	fsys.SetChaos(42, 0.3, OpWrite)
	if fsys.ChaosInjected() != 0 {
		t.Fatal("chaos hits before any op")
	}
}

func TestCountsTrackOps(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS{})
	f := mustOpen(t, fsys, filepath.Join(dir, "f"))
	_, _ = f.WriteAt([]byte("x"), 0)
	_ = f.Sync()
	f.Close()
	c := fsys.Counts()
	if c[OpOpen] != 1 || c[OpWrite] != 1 || c[OpSync] != 1 || c[OpClose] != 1 {
		t.Fatalf("Counts = %v", c)
	}
}

// TestDiscardKeepsNothing: Discard takes every write and sync, and
// afterwards has no file to list or read.
func TestDiscardKeepsNothing(t *testing.T) {
	f := mustOpen(t, Discard, "d/wal")
	if n, err := f.WriteAt([]byte("record"), 0); n != 6 || err != nil {
		t.Fatalf("WriteAt = %d, %v; want 6, nil", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := Discard.Rename("d/wal", "d/wal2"); err != nil {
		t.Fatal(err)
	}
	if entries, err := Discard.ReadDir("d"); len(entries) != 0 || err != nil {
		t.Fatalf("ReadDir = %v, %v; want nothing", entries, err)
	}
	if _, err := Discard.ReadFile("d/wal2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadFile: %v, want ErrNotExist", err)
	}
}
