package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything.
const minBeyond = 10

// percentile returns the q-quantile of samples by the nearest-rank
// rule, and how many samples lie above that rank. Failed operations
// enter as +Inf, so they miss every latency limit. It is an error when
// fewer than minBeyond samples lie above the rank.
func percentile(samples []float64, q float64) (v float64, beyond int, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	beyond = n - rank(n, q)
	if beyond < minBeyond && q > 0.5 {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	return nearestRank(samples, q), beyond, nil
}

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(n int, q float64) int {
	return max(1, min(int(math.Ceil(q*float64(n))), n))
}

// nearestRank returns the q-quantile of non-empty samples by the
// nearest-rank rule, however few samples lie beyond it.
func nearestRank(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// usage is a process resource snapshot.
type usage struct {
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	gcs     uint32
	pauseNs uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func (b usage) minus(a usage) usage {
	return usage{cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, gcs: b.gcs - a.gcs, pauseNs: b.pauseNs - a.pauseNs}
}

func (b usage) plus(a usage) usage {
	return usage{cpu: b.cpu + a.cpu, alloc: b.alloc + a.alloc, gcs: b.gcs + a.gcs, pauseNs: b.pauseNs + a.pauseNs}
}

// usageDelta is the resource use between two snapshots, per operation
// where that makes sense.
type usageDelta struct {
	cpuUsPerOp   float64
	allocKBPerOp float64
	gcCycles     float64
	gcPauseMs    float64
}

func (b usage) since(a usage, ops int) usageDelta {
	n := float64(max(ops, 1))
	return usageDelta{
		cpuUsPerOp:   float64(b.cpu-a.cpu) / float64(time.Microsecond) / n,
		allocKBPerOp: float64(b.alloc-a.alloc) / 1024 / n,
		gcCycles:     float64(b.gcs - a.gcs),
		gcPauseMs:    float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
