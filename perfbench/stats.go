package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time. Unlike wall time it
// does not grow while the hypervisor runs other guests on this machine's
// CPUs (steal), which on a shared host swings wall-clock figures by tens
// of percent between runs; the gated end-to-end metrics use it as their
// clock.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := rank(len(s), p) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the tolerance keeps decimal percentiles such as 99.9 exact.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples ranked above the nearest-rank p-th percentile
// of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile returns the highest of the candidate percentiles that has
// at least minBeyond samples beyond it among n, and false when none has.
func tailPercentile(n, minBeyond int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if beyond(n, p) >= minBeyond && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// failedRatio is failed over attempted transactions; a run that attempted
// nothing has failed everything it was asked to do.
func failedRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func meanMicros(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Microsecond)
}

func perUnit(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// heapSampler polls the live heap from outside the program through
// runtime/metrics and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // written by the sampling goroutine, read after stop
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
