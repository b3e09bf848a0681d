package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// host fingerprints the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     runtime.GOOS,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = runtime.GOOS + " " + strings.TrimSpace(string(b))
	}
	return h
}

// calibSink keeps the calibration kernel from being optimised away.
var calibSink uint64

// calibrate times a fixed, cache-resident integer kernel (a 32 KiB table
// walked by a data-dependent index) and returns the median of five runs
// in milliseconds. Taken at both ends of a run, it tells a slow phase of
// the host from a slow program.
func calibrate() float64 {
	const words = 4096
	table := make([]uint64, words)
	for i := range table {
		table[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	var s samples
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(rep)
		for i := 0; i < 1<<21; i++ {
			x = x*6364136223846793005 + table[x%words]
			table[i%words] ^= x >> 7
		}
		calibSink += x
		s.add(time.Since(t0))
	}
	return s.median()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// the Go runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcSnapshot reads the runtime's garbage-collector counters.
type gcSnapshot struct{ cpuS, cycles, allocMB float64 }

func readGC() gcSnapshot {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcSnapshot{cpuS: val(s[0].Value), cycles: val(s[1].Value), allocMB: val(s[2].Value) / (1 << 20)}
}

func (a gcSnapshot) since(b gcSnapshot) gcSnapshot {
	return gcSnapshot{cpuS: a.cpuS - b.cpuS, cycles: a.cycles - b.cycles, allocMB: a.allocMB - b.allocMB}
}
