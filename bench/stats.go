// Estimators. Everything the benchmark reports as a median, a
// percentile or a spread goes through these few functions, so the unit
// tests pin them once.
package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNs returns the q-quantile (nearest rank) of sorted
// nanosecond samples.
func quantileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// p50Ns sorts ns in place and returns its median sample.
func p50Ns(ns []int64) int64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return quantileNs(ns, 0.5)
}

// tailQuantiles are the percentiles a tail may be reported at.
var tailQuantiles = []float64{0.9, 0.95, 0.99, 0.999, 0.9999}

// tailQuantile picks the highest percentile that still has at least
// ten samples beyond it; ok is false when even p90 has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range tailQuantiles {
		if float64(n)*(1-c) >= 10-1e-9 { // 100*(1-0.9) is 9.999999999999998
			q, ok = c, true
		}
	}
	return q, ok
}

// cycleRatios is num[i]/den[i] per cycle: the ratio is taken inside each
// cycle, where numerator and denominator saw the same machine state, and
// only then summarised. A cycle with a zero denominator is dropped.
func cycleRatios(num, den []float64) []float64 {
	r := make([]float64, 0, len(num))
	for i := range num {
		if i < len(den) && den[i] > 0 {
			r = append(r, num[i]/den[i])
		}
	}
	return r
}

// ratioMedian is the median over cycles of num[i]/den[i].
func ratioMedian(num, den []float64) float64 { return median(cycleRatios(num, den)) }

// trimmedMean is the mean of xs without its lowest and highest frac
// (each rounded down to whole samples); 0 for an empty slice. xs is not
// modified.
func trimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(frac * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// (the default "exclusive" method) does, because that is what the
// pipeline that judges the benchmark computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// iqrSpread is (Q3-Q1)/median: the run-to-run spread as a share of the
// median.
func iqrSpread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
