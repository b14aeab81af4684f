package main

import (
	"math"
	"slices"
)

// tally counts what was attempted (operations and oracle checks), how
// much of it failed, and keeps the first failure for the report.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.first == nil {
		t.first = err
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == nil {
		t.first = o.first
	}
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest value with at least p of the samples at or below it.
// It returns NaN for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median of an unsorted slice; the mean of the middle two when even.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the acceptance check of
// the benchmark contract computes; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(1), q(2), q(3)
}

// iqrShare is the inter-quartile range as a share of the median: the
// spread statistic of the contract. Zero for fewer than two values.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// worstPair is the largest pairwise disagreement of the values, as a
// share of the smaller of each pair: (max-min)/min.
func worstPair(xs []float64) float64 {
	if len(xs) < 2 || slices.Min(xs) == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / math.Abs(slices.Min(xs))
}
