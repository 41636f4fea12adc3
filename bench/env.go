package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// envBlock records where a result was measured. Neighbour load is the
// dominant noise source on a small shared box (CPU time tracks wall time,
// so slow ops are contention, not preemption), hence the load averages.
type envBlock struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
}

// startEnv caps GOMAXPROCS at the CPU count and samples the environment.
func startEnv() envBlock {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	e := envBlock{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Load1Start: load1(),
	}
	warnLoad(e.Load1Start, e.NumCPU, "start")
	return e
}

func (e *envBlock) finish() {
	e.Load1End = load1()
	warnLoad(e.Load1End, e.NumCPU, "end")
}

func warnLoad(load float64, nproc int, when string) {
	if load > float64(nproc) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load average %.2f at %s exceeds nproc=%d; timings will be noisy\n", load, when, nproc)
	}
}

// load1 reads the 1-minute load average; -1 where the host has no
// /proc/loadavg.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
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
