// Package vfs abstracts the small slice of filesystem behavior the
// durable privacy-budget ledger depends on, so that every I/O failure
// path — EIO on append, ENOSPC mid-record, a failed fsync, a torn
// rename, power loss between a write and its sync — can be exercised
// deterministically in tests.
//
// Three implementations ship here: OS, a thin pass-through to the real
// filesystem; Discard, which keeps nothing (the ledger of a server
// that stores no budgets); and FaultFS (fault.go), a wrapper that
// injects scripted or randomized faults and can simulate a crash by
// truncating every file back to its last-synced length.
// internal/ledger takes an FS in its Options; production callers leave
// it nil and get OS.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable-file surface the ledger uses: positioned and
// sequential writes, explicit durability, and close. Reads happen
// through FS.ReadFile (the ledger replays whole segments).
type File interface {
	io.Writer
	io.WriterAt
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
}

// FS is the filesystem surface the ledger runs on. Implementations
// must be safe for concurrent use (the ledger serializes its own
// writes, but metrics and tooling may read concurrently).
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so creations and renames inside it are
	// durable. Some platforms refuse directory syncs; callers treat
	// errors as best-effort.
	SyncDir(name string) error
}

// OS is the real filesystem.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }

func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Discard is an FS that keeps no bytes: files accept and drop every
// write, syncs, renames and removals succeed without doing anything,
// every directory is empty and no file exists to be read. A ledger
// opened on it folds what it journals in memory and stores nothing.
var Discard FS = discard{}

type discard struct{}

func (discard) MkdirAll(string, os.FileMode) error              { return nil }
func (discard) OpenFile(string, int, os.FileMode) (File, error) { return discardFile{}, nil }
func (discard) ReadDir(string) ([]fs.DirEntry, error)           { return nil, nil }
func (discard) Remove(string) error                             { return nil }
func (discard) Rename(string, string) error                     { return nil }
func (discard) Truncate(string, int64) error                    { return nil }
func (discard) SyncDir(string) error                            { return nil }

func (discard) ReadFile(name string) ([]byte, error) {
	return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
}

// discardFile is a file of Discard: it drops what is written to it.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error)            { return len(p), nil }
func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Seek(int64, int) (int64, error)         { return 0, nil }
func (discardFile) Sync() error                            { return nil }
func (discardFile) Close() error                           { return nil }
