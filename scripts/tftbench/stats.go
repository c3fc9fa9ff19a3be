package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the middle two for an even
// count), or 0 for none. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// so that the spread -compare reports is the one the contract's driver
// computes. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the distance between the first and third quartile as a
// share of the median; 0 when there are too few values to say.
func spreadShare(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// pickPercentile returns the highest percentile of an n-sample timing that
// still has at least ten samples beyond it; below 20 samples only the
// median is supported.
func pickPercentile(n int) float64 {
	// Per-mille, so that "ten beyond" is integer arithmetic: 10 000
	// samples have exactly ten beyond p99.9.
	for _, pm := range []int{999, 990, 950, 900, 750} {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10
		}
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of sorted (ascending), or
// 0 for no samples.
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

// timing summarises one drive's per-call durations (ns).
type timing struct {
	N      int     // timed calls
	P50    float64 // ns
	Hi     float64 // ns
	HiPct  float64 // which percentile Hi is
	Allocs float64 // per call
	Failed int
	// ByClass holds the p50 of each input class (d1/d2, the four HTTP
	// objects); the budget table needs them because a session is a sum over
	// classes and a sum of medians is not the median of the mix.
	ByClass []float64
}

// summarise reduces per-call durations; classes, when non-nil, assigns each
// sample to a class in [0, nclass).
func summarise(ns []float64, classes []int, nclass int) timing {
	t := timing{N: len(ns)}
	if len(ns) == 0 {
		return t
	}
	s := append([]float64(nil), ns...)
	sort.Float64s(s)
	t.P50 = percentile(s, 50)
	t.HiPct = pickPercentile(len(s))
	t.Hi = percentile(s, t.HiPct)
	if classes != nil {
		groups := make([][]float64, nclass)
		for i, v := range ns {
			groups[classes[i]] = append(groups[classes[i]], v)
		}
		t.ByClass = make([]float64, nclass)
		for c, g := range groups {
			sort.Float64s(g)
			t.ByClass[c] = percentile(g, 50)
		}
	}
	return t
}

// class returns the p50 of class c, falling back to the overall p50 when
// the drive was not classed or saw no input of that class.
func (t timing) class(c int) float64 {
	if c < len(t.ByClass) && t.ByClass[c] > 0 {
		return t.ByClass[c]
	}
	return t.P50
}
