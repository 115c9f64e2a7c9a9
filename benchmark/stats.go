package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// spread is the distance between the first and third quartile as a share of
// the median, the steadiness measure the benchmark contract uses.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// summary is how one metric of one workload is reported: the median over
// its repetitions with the extremes and the spread.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Values: xs, Median: median(xs), Spread: spread(xs)}
	if len(xs) > 0 {
		s.Min, s.Max = xs[0], xs[0]
		for _, x := range xs {
			s.Min = math.Min(s.Min, x)
			s.Max = math.Max(s.Max, x)
		}
	}
	return s
}
