package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostSample is a reading of the host's and this process's CPU clocks,
// from /proc/stat and /proc/self/stat, in clock ticks.
type hostSample struct {
	busy, total int64 // all CPUs: non-idle (steal included) and all ticks
	self        int64 // this process: user + system
	ok          bool
}

func readHost() hostSample {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostSample{}
	}
	var s hostSample
	for i, v := range f[1:] {
		if i >= 8 { // guest time is already inside user time
			break
		}
		x, _ := strconv.ParseInt(v, 10, 64)
		s.total += x
		if i != 3 && i != 4 { // idle, iowait
			s.busy += x
		}
	}
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return hostSample{}
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, found := strings.Cut(string(self), ") ")
	g := strings.Fields(rest)
	if !found || len(g) < 13 {
		return hostSample{}
	}
	ut, _ := strconv.ParseInt(g[11], 10, 64)
	st, _ := strconv.ParseInt(g[12], 10, 64)
	s.self = ut + st
	s.ok = true
	return s
}

// otherBusy is the share of all host CPU time between a and b that went
// to other processes or to steal: (Δbusy − Δself) / Δtotal.
func otherBusy(a, b hostSample) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return max(0, float64((b.busy-a.busy)-(b.self-a.self))/float64(b.total-a.total))
}

// rtSample is a reading of the Go runtime's allocator and GC.
type rtSample struct {
	alloc      uint64 // cumulative bytes allocated
	gcs        uint32
	gcCPU, cpu float64 // cumulative seconds
}

var rtMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtMetrics)
	s := rtSample{alloc: ms.TotalAlloc, gcs: ms.NumGC}
	if rtMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rtMetrics[0].Value.Float64()
		s.cpu = rtMetrics[1].Value.Float64()
	}
	return s
}

// settledHeapMB is the in-use heap after two forced collections.
func settledHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
