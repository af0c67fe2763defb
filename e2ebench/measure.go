package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// metric is one named, unit-carrying figure a run reports.
type metric struct {
	name  string
	unit  string
	value float64
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by nearest rank (0 when empty).
// ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

// median is quantile(ds, 0.5) on a private copy.
func median(ds []time.Duration) time.Duration {
	return quantile(slices.Clone(ds), 0.5)
}

// medianFloat is the median of xs (0 when empty); xs is sorted in place.
func medianFloat(xs []float64) float64 {
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

// geomeanMS is the geometric mean, in milliseconds, of the per-statement
// median latencies: each statement counts once, however often it ran.
func geomeanMS(perStmt [][]time.Duration) float64 {
	sum, n := 0.0, 0
	for _, ds := range perStmt {
		if len(ds) == 0 {
			continue
		}
		sum += math.Log(ms(median(ds)))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/self/status, in MiB; 0 where the file does not exist.
func procStatusMB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		name, rest, ok := bytes.Cut(sc.Bytes(), []byte(":"))
		if !ok || string(name) != field {
			continue
		}
		kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak RSS (VmHWM) at the current RSS. It reports whether the kernel
// allowed the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.WriteString("5")
	return f.Close() == nil && err == nil
}

// gcSnap is the Go runtime's collection count and total pause time.
type gcSnap struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnap{cycles: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}

// heapMB is the live heap after a forced collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// copyGBs is the host's memory copy rate, in GB/s read plus written: the
// best of five copies of a 32 MiB buffer. Neighbours on a shared host move
// memory-bound timings by tens of percent; this figure, taken in the same
// run, shows when a shift in the metrics came from the host.
func copyGBs() float64 {
	const n = 32 << 20
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		copy(dst, src)
		best = min(best, time.Since(start))
	}
	return 2 * n / best.Seconds() / 1e9
}
