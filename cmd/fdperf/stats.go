package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank p-quantile of sorted samples: the
// smallest sample with at least p·n samples at or below it. At n = 40 the
// 0.75-quantile is the 30th sample, which leaves exactly 10 samples above
// it — the highest percentile of a 40-job run with ten samples beyond it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median returns the median of xs, the mean of the two middle values when
// len(xs) is even, without reordering them; 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first, second and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default), so
// spreads reported by -compare read the same as those computed from the
// same values elsewhere.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets the process's VmHWM high-water mark to its current
// RSS (Linux); where that is not allowed, VmHWM keeps covering the whole
// process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's VmHWM from /proc/self/status in MB; 0 when
// it is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// gcSample is a reading of the runtime's cumulative GC counters.
type gcSample struct {
	cycles uint64
	cpu    float64 // seconds of CPU spent in the collector
}

var gcMetricNames = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

// readGC samples the collector counters through runtime/metrics, which
// does not stop the world.
func readGC() gcSample {
	ms := make([]metrics.Sample, len(gcMetricNames))
	for i, name := range gcMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	var g gcSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		g.cpu = ms[1].Value.Float64()
	}
	return g
}

// timeMedian runs fn n times, each right after a reference kernel run, and
// returns the median time in reference seconds.
func timeMedian(ref *refKernel, n int, fn func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		scale := ref.scale()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds()*scale)
	}
	return median(ts), nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
