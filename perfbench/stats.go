package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the two nearest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// the spreads printed by the steadiness report match the acceptance rule.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(j int) float64 {
		// Exclusive method: position j*(n+1)/4, 1-based.
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return cut(1), cut(2), cut(3)
}

// memSnap is the allocation counters that bracket a timed phase.
type memSnap struct {
	mallocs, bytes uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuSnap is the process CPU time (user plus system, from getrusage) and
// the runtime's estimate of the part the garbage collector spent, both in
// seconds.
type cpuSnap struct {
	total, gc float64
}

func readCPU() cpuSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	var gc float64
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	return cpuSnap{total: tvSeconds(ru.Utime) + tvSeconds(ru.Stime), gc: gc}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads a process's peak resident set (VmHWM) from
// /proc/<pid>/status, in MB; pid "self" is the calling process. getrusage
// is no substitute for a child: Linux carries the parent's peak over into
// the child's ru_maxrss when the child execs.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
