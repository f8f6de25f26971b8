package main

import (
	"math"
	"sort"
)

// summary is how one metric is reported: the median over the run's
// slices, the distance between the first and third quartile of the same
// slice values, and how many slices (or samples) stood behind it.
type summary struct {
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	N      int       `json:"n"`
	Slices []float64 `json:"slices,omitempty"` // the values behind the median, in time order
}

func summarize(xs []float64) summary {
	s := summary{Median: median(xs), N: len(xs), Slices: xs}
	if len(xs) > 1 {
		q1, q3 := quartiles(xs)
		s.IQR = q3 - q1
	}
	return s
}

// single reports a value that has no slices behind it (a count, a ratio
// of two medians).
func single(v float64) summary { return summary{Median: v, N: 1} }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the method
// the benchmark's driver uses for its own spread check.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

// splitmix64 is the seeded generator behind every input the benchmark
// makes: payload bytes, message sizes, the handshake-kind order and the
// choice of which blocks are compared byte for byte.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix64(uint64(*s))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) fill(p []byte) {
	for i := 0; i < len(p); i += 8 {
		v := s.next()
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
}
