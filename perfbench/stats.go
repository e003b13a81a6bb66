package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailPercentiles are the candidates for a timing's reported tail.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that has at least
// ten samples beyond it (nearest rank), or 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

// Timing summarises one latency sample set in milliseconds.
type Timing struct {
	N      int
	P50    float64
	P99    float64
	TailP  float64
	TailMs float64
}

func summarize(ms []float64) Timing {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	t := Timing{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	t.TailP = tailPercentile(len(s))
	t.TailMs = quantile(s, t.TailP/100)
	return t
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the Go heap in use while a phase runs: the live heap
// each garbage collection that ends during the phase marked, read through
// runtime/metrics. Collections that ended
// before the phase began do not count, so garbage from set-up cannot mask
// or inflate the figure.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	marks []uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	cycle := s[0].Value.Uint64()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycle {
				cycle = c
				h.marks = append(h.marks, s[1].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns, in MiB, the 90th percentile and the
// maximum of the live heaps marked during the phase. The maximum depends on
// which large inputs happen to be in flight when a collection ends; the
// percentile does not, and is the figure reported.
func (h *heapSampler) Stop() (p90, peak float64) {
	close(h.stop)
	h.done.Wait()
	if len(h.marks) == 0 { // no collection ended during the phase
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		v := float64(s[0].Value.Uint64()) / (1 << 20)
		return v, v
	}
	live := make([]float64, len(h.marks))
	for i, m := range h.marks {
		live[i] = float64(m) / (1 << 20)
	}
	sort.Float64s(live)
	return quantile(live, 0.9), live[len(live)-1]
}

// gcStats reads the cumulative GC cycle count and stop-the-world pause time.
type gcStats struct {
	Cycles  uint64
	PauseMs float64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	g := gcStats{Cycles: s[0].Value.Uint64()}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			g.PauseMs += float64(c) * (lo + hi) / 2 * 1000
		}
	}
	return g
}

func (g gcStats) sub(before gcStats) gcStats {
	return gcStats{Cycles: g.Cycles - before.Cycles, PauseMs: g.PauseMs - before.PauseMs}
}

// allocBytes is the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
