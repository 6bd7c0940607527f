package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance rule for this benchmark is stated in. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based position among n points
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func firstQuartile(v []float64) float64 {
	q1, _ := quartiles(v)
	return q1
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailPermille are the candidates highestPercentile picks from, in
// tenths of a percent so that the sample count is compared exactly.
var tailPermille = []int{500, 900, 950, 990, 999}

// highestPercentile returns the highest candidate percentile that still
// has at least ten of n samples beyond it — a tail reported from fewer
// samples is mostly the noise of the box, not the program.
func highestPercentile(n int) float64 {
	best := tailPermille[0]
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// msOf converts durations to sorted milliseconds.
func msOf(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc; 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
