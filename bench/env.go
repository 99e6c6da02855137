// The environment block: what a reader needs to know before comparing
// two outputs, and what -compare refuses to ignore.
package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

type envBlock struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	Transport  string `json:"transport"`
	LLC        string `json:"llc_size"`
	Seed       uint64 `json:"seed"`
	Cycles     int    `json:"cycles"`
	// Workload parameters: outputs that differ here measured different
	// things.
	ClientThreads int `json:"client_threads"`
	ServerThreads int `json:"server_threads"`
	Elems         int `json:"elems"`
	SliceOps      int `json:"slice_ops"`
	RefBytes      int `json:"ref_bytes"`
	RefRounds     int `json:"ref_rounds"`
	// RefNominal is the scale of setup_s (workload.refNominal): outputs
	// scaled differently do not compare.
	RefNominal float64 `json:"ref_nominal_rounds_per_s"`
}

func readFirstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	s, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(s)
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

// llcSize reads the largest cache index sysfs exposes for cpu0.
func llcSize() string {
	out := "unknown"
	for i := 0; i < 8; i++ {
		s := readFirstLine("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if s != "" {
			out = s
		}
	}
	return out
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newEnv(seed uint64) envBlock {
	kernel := readFirstLine("/proc/sys/kernel/osrelease")
	if kernel == "" {
		kernel = "unknown"
	}
	return envBlock{
		CPUModel:      cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GitCommit:     gitCommit(),
		Kernel:        kernel,
		Transport:     "tcp over 127.0.0.1 (loopback, not a real link)",
		LLC:           llcSize(),
		Seed:          seed,
		ClientThreads: clientThreads,
		ServerThreads: serverThreads,
	}
}

// processCPU is user+system CPU seconds of this process so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
