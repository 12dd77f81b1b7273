package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envStamp says where and on what a number was measured; it is written
// into every result and trace file so figures from different boxes are
// never compared by accident.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func stampEnv(seed uint64) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease", ""),
		CPUModel:   firstLine("/proc/cpuinfo", "model name"),
		Commit:     commit(),
		Seed:       seed,
	}
}

// firstLine returns the first line of a file, or with a key the value of
// its first "key : value" line; "unknown" when there is none.
func firstLine(path, key string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key == "" {
			return strings.TrimSpace(line)
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, or "unknown" outside a git repository
// (the benchmark driver runs from an exported tree).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
