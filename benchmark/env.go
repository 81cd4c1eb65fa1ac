package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every output file, so that two files are only
// compared when they came from comparable hosts.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"last_level_cache"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(seed int64) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		LLC:        firstLine("/sys/devices/system/cpu/cpu0/cache/index3/size"),
		Commit:     commit(),
		Seed:       seed,
	}
}

// commit is the revision the binary was built from, as the go tool stamps
// it; a checkout that is not a git repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpu     time.Duration // user + system
	alloc   uint64        // bytes allocated, cumulative
	mallocs uint64        // heap objects allocated, cumulative
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("benchmark: getrusage: " + err.Error())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB, the same figure /proc/self/status calls VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("benchmark: getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
