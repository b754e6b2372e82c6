package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// selfUsage samples this process: user+system CPU seconds and heap
// objects allocated. It is the usage method of the in-process
// workloads, whose process under test is the benchmark itself.
func selfUsage() (cpuSec float64, objects uint64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), mallocs(), nil
}

// processMetrics reports the benchmark process's own memory and GC
// activity (every workload; for serve-mix this is the load generator,
// the daemon has serve.daemon_rss_mb).
func processMetrics(m metrics) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_cycles"] = float64(ms.NumGC)
	m["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU reads another process's user+system CPU seconds.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad CPU times %q %q", pid, f[11], f[12])
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSSMB reads another process's peak resident set (VmHWM).
func procPeakRSSMB(pid int) float64 {
	return statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:") / 1024
}

// statusField returns the first number after the line's key in a
// "key: value" file, 0 when absent.
func statusField(path, key string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				v, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed line, like an absent one
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
