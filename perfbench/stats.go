package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// percentile is the exact nearest-rank q-quantile of xs (sorted in place):
// an order statistic of the samples, not a bucketed estimate.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// median of xs (sorted in place); the mean of the middle pair for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// frac is a/b, or 0 when b is 0 (a layer that did no work).
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads a process's resident high-water mark (VmHWM) from /proc.
// pid "self" reads this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS returns this process's free memory to the OS and restarts
// its resident high-water mark (Linux 4.0+), so a later peakRSSMB covers
// only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat,
// in clock ticks of 1/100 s (USER_HZ on Linux).
func cpuSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%s/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// runtimeSample is the Go runtime's own accounting at one instant.
type runtimeSample struct {
	allocs, allocBytes float64
	gcCPU, userCPU     float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(ms[0]), val(ms[1]), val(ms[2]), val(ms[3])}
}

// stealSeconds reads how long the hypervisor has kept this virtual
// machine's CPUs from running although they had work (the steal column of
// /proc/stat), in seconds per CPU. It is 0 on hosts that do not report steal.
func stealSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	lines := strings.Split(string(data), "\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", lines[0])
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0, fmt.Errorf("parse steal in /proc/stat: %w", err)
	}
	cpus := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			cpus++
		}
	}
	return ticks / 100 / float64(max(cpus, 1)), nil
}

// ranSeconds is the part of a measured interval in which the host let this
// machine run: the wall time minus the time stolen from it. Throughput is
// reported over it, so that load from other tenants of a shared host does
// not read as a change in the program. It never drops below half the wall
// time, whatever the counter says.
func ranSeconds(wall time.Duration, stolen float64) float64 {
	return max(wall.Seconds()-stolen, wall.Seconds()/2)
}
