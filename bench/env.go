package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir holds everything a run writes: the trace, and the ledger
// directories when no tmpfs is available. bench/.gitignore covers it.
const outDir = "bench/out"

// envStamp is printed with every run so two results can be compared
// knowing what produced them.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	LedgerFS   string  `json:"ledger_fs"` // tmpfs | disk
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"` // op-count scale factor (1 = BENCHMARK.json run_seconds)
	Traced     bool    `json:"traced"`
}

// ledgerRoot picks the parent directory for every ledger directory of
// this run. Design rule 3: end-to-end runs keep the ledger on tmpfs so
// that the host's shared disk does not decide the result — fsync=always
// still issues every write and fsync syscall, and the device's share is
// reported separately (device.fsync_us × fsyncs_per_spend). Without a
// usable /dev/shm the ledger falls back to bench/out and the run is
// stamped ledger_fs=disk.
func ledgerRoot() (dir, fsKind string, err error) {
	if d, e := os.MkdirTemp("/dev/shm", "dpbench-"); e == nil {
		return d, "tmpfs", nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", "", err
	}
	d, err := os.MkdirTemp(outDir, "ledger-")
	if err != nil {
		return "", "", err
	}
	return d, "disk", nil
}

// deviceFsyncMicros times a raw 4 KiB positioned write + fsync on the
// checkout's own disk (bench/out): the per-fsync device cost that the
// tmpfs ledger leaves out. Median of n.
func deviceFsyncMicros(n int) (float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("fsync-probe-%d", os.Getpid()))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

func newEnvStamp(fsKind string, seed uint64, scale float64, traced bool) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LedgerFS:   fsKind,
		Seed:       seed,
		Scale:      scale,
		Traced:     traced,
	}
}
