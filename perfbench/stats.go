package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// smallest sample with at least a fraction p of the samples at or below
// it. xs is not modified; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle sample, or the mean of the two middle samples of an
// even-sized set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxLateness is how far behind its schedule an open-loop generator ran:
// the largest gap between when a request was due and when it was sent.
// A generator that sent early (negative gap) counts as on time.
func maxLateness(due, sent []time.Duration) time.Duration {
	var late time.Duration
	for i := range due {
		if d := sent[i] - due[i]; d > late {
			late = d
		}
	}
	return late
}

// dueTimes is the open-loop schedule: n requests at a fixed rate per
// second, the first due at offset 0.
func dueTimes(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}

// resetPeakRSS restarts a process's peak resident set count (pid 0 means
// this process), so peakRSSMB covers only what follows.
func resetPeakRSS(pid int) {
	// Kernels without clear_refs keep the lifetime peak; that only
	// widens the window measured.
	_ = os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set (VmHWM) from procfs;
// pid 0 means this process.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuSelf is the CPU time this process has used, all threads, user and
// system. Unlike wall time it leaves out the time a virtual CPU is held by
// the hypervisor (steal), which on a shared host moves by minutes.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf is the CPU time another process's threads have used, summed from
// each thread's schedstat run time (nanoseconds, steal left out).
func cpuOf(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(filepath.Join(procPath(pid, "task"), "*", "schedstat"))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// cpuTicks is the host's cumulative CPU time split by state, as the first
// line of /proc/stat gives it.
type cpuTicks []uint64

func readTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	t := make(cpuTicks, len(f)-1)
	for i := range t {
		t[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return t
}

// stealPct is the share of the host's CPU time between two readings that
// the hypervisor gave to other guests, in percent.
func stealPct(before, after cpuTicks) float64 {
	if len(before) < 8 || len(after) != len(before) {
		return 0
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(after[7]-before[7]) / float64(total)
}
