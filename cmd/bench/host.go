package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo describes where the numbers were taken, so a noisy or odd
// host is visible in the output.
type hostInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Load1      float64 `json:"load1"`
}

// describeHost gathers the host line printed at the start of every run.
// root is the checkout; outside a git work tree the commit is "unknown".
func describeHost(root string) hostInfo {
	h := hostInfo{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown"}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	// Keep git from adopting a repository above the checkout.
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPU = cpuModel(string(data))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(data), "%f", &h.Load1)
	}
	return h
}

func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
