package main

// The benchmark keeps its own small statistics helpers rather than the
// program's (metrics, benchio), so refactoring the code under test
// cannot change how the benchmark reports it.

import (
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// percentileUS returns the nearest-rank q-quantile (0 < q ≤ 1) of
// latencies in nanoseconds, in microseconds. It sorts lat in place.
func percentileUS(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	i := int(q*float64(len(lat))+0.5) - 1
	i = max(0, min(i, len(lat)-1))
	return float64(lat[i]) / 1e3
}

// median returns the median of xs (0 for none). It sorts xs in place.
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

// heapSampler tracks the peak live Go heap: the bytes found reachable
// by the latest completed GC cycle, sampled from runtime/metrics every
// 5 ms (which does not stop the world). Unlike the bytes held by heap
// objects, it leaves out garbage not yet swept, so it does not depend
// on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops sampling and returns the peak in MB (10^6 bytes).
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// runtimeCounters is a snapshot of the allocation and GC counters.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	cpu                  time.Duration // process user+system CPU
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure only skews sim.par.cpu_util
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), cpu: cpu}
}

// addRuntimeLayers fills the runtime.* per-layer metrics for work done
// between two snapshots over reqs requests.
func addRuntimeLayers(layers map[string]float64, from, to runtimeCounters, reqs int64) {
	if reqs <= 0 {
		return
	}
	layers["runtime.alloc_bytes_per_req"] = float64(to.allocBytes-from.allocBytes) / float64(reqs)
	layers["runtime.gc_per_kreq"] = 1000 * float64(to.gcCycles-from.gcCycles) / float64(reqs)
}
