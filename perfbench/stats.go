package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); +Inf entries, which stand for failed operations, sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapLiveMiB is the live heap after a forced collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtSample is a snapshot of the process-wide runtime counters the
// runtime.* per-layer metrics are differences of.
type rtSample struct {
	mallocs   uint64
	mutexWait float64 // seconds
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds
}

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{mallocs: ms.Mallocs, mutexWait: f(0), gcCPU: f(1), totalCPU: f(2)}
}

func (s rtSample) minus(o rtSample) rtSample {
	return rtSample{s.mallocs - o.mallocs, s.mutexWait - o.mutexWait, s.gcCPU - o.gcCPU, s.totalCPU - o.totalCPU}
}

func (s rtSample) plus(o rtSample) rtSample {
	return rtSample{s.mallocs + o.mallocs, s.mutexWait + o.mutexWait, s.gcCPU + o.gcCPU, s.totalCPU + o.totalCPU}
}

// runtimeLayer reports the runtime.* metrics of the counter differences
// d, normalised by msgs messages.
func runtimeLayer(m metrics, d rtSample, msgs int64) {
	n := float64(msgs)
	m.set("runtime.allocs_per_msg", "allocs/msg", ratio(float64(d.mallocs), n))
	m.set("runtime.mutex_wait_ns_per_msg", "ns/msg", ratio(d.mutexWait*1e9, n))
	m.set("runtime.gc_cpu_fraction", "ratio", ratio(d.gcCPU, d.totalCPU))
}

// durations collects latency samples in microseconds.
type durations []float64

func (d *durations) add(x time.Duration) { *d = append(*d, float64(x)/1e3) }
