package bench

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := rank - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// sortedCopy returns an ascending copy of vals.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the median of vals.
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// fastest returns the best value of a time metric across slices: the
// largest when higher is better, else the smallest. The work in every
// workload is serial and compute-bound, so interference from the host can
// only slow a slice down; the fastest slice is the one least disturbed.
func fastest(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if (higherBetter && v > best) || (!higherBetter && v < best) {
			best = v
		}
	}
	return best
}

// spreadPct is the distance from the best to the worst value as a
// percentage of the best.
func spreadPct(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if s[0] == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / s[0] * 100
}

// iqrShare is the interquartile range of vals as a share of their median,
// with the quartiles of Python's statistics.quantiles(vals, n=4) (the
// exclusive method), which the driver uses to judge a metric's steadiness.
func iqrShare(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vals)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
