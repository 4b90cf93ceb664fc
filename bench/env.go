package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// An environment is what a reader needs to compare two machines'
// numbers: the CPU, the toolchain, and what an fsync costs where the
// data directories live.
type environment struct {
	CPUModel     string
	NumCPU       int
	GoVersion    string
	Kernel       string
	DataDirFS    string
	FsyncP50US   float64
	FsyncP99US   float64
	ServerMaxPro int // GOMAXPROCS of the server child, from /healthz
}

// fsNames maps statfs magic numbers to names, for the filesystems a
// benchmark directory is likely to be on.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func probeEnvironment(dir string) (environment, error) {
	env := environment{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: "unknown", Kernel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return env, fmt.Errorf("statfs %s: %w", dir, err)
	}
	env.DataDirFS = fsNames[int64(st.Type)]
	if env.DataDirFS == "" {
		env.DataDirFS = fmt.Sprintf("0x%x", st.Type)
	}
	var err error
	env.FsyncP50US, env.FsyncP99US, err = probeFsync(dir)
	return env, err
}

// probeFsync times 200 appends of 4 KiB each followed by Sync, the
// shape of a one-commit WAL append.
func probeFsync(dir string) (p50, p99 float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	us := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(us)
	return quantile(us, 0.5), quantile(us, 0.99), nil
}

func (e environment) print() {
	fmt.Printf("env: cpu=%q nproc=%d server_gomaxprocs=%d go=%s kernel=%s\n",
		e.CPUModel, e.NumCPU, e.ServerMaxPro, e.GoVersion, e.Kernel)
	abs, _ := filepath.Abs(runDir)
	fmt.Printf("env: data_dir=%s fs=%s fsync_p50=%.1fus fsync_p99=%.1fus (200 x 4KiB write+Sync)\n",
		abs, e.DataDirFS, e.FsyncP50US, e.FsyncP99US)
	if e.DataDirFS == "tmpfs" {
		fmt.Println("env: WARNING data dir is on tmpfs: fsync is free here, so the durable workloads' latency is not a disk's")
	}
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
