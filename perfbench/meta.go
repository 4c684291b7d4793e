package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// runMeta records what a result was measured on, so results from different
// machines or settings are not compared unawares.
func runMeta(w *workload, seed int64, budget time.Duration, trace bool, walDir string) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	meta := map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"seconds":        budget.Seconds(),
		"trace":          trace,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"git_commit":     commit,
		"git_modified":   modified,
		"users":          nproc,
		"shards":         nproc,
		"batch":          batchCap,
		"jobs_per_round": w.jobs,
		"keys":           w.keys,
	}
	if w.fsync != "" {
		meta["fsync"] = w.fsync
		meta["wal_fs"] = fsType(walDir)
	}
	return meta
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout the
// run builds from (the engine under internal/ and this benchmark), so runs
// stay attributable where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path + "\x00"))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
