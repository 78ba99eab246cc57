package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// minP95Samples is the fewest samples a statement class needs before the
// report prints its p95: on a shared 2-core box a tail cut from fewer
// samples does not repeat from run to run.
const minP95Samples = 200

// quantile returns the q-quantile of xs by nearest rank (q in [0,1]).
// It sorts a copy; an empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p95 applies the sample-count rule: ok is false below minP95Samples.
func p95(xs []float64) (v float64, ok bool) {
	if len(xs) < minP95Samples {
		return 0, false
	}
	return quantile(xs, 0.95), true
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
