package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 500 samples rests on five values and is not.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest
// rank, and whether at least minBeyond samples lie above it. samples
// must be sorted.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], n-rank >= minBeyond
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m, _ := percentile(s, 0.5)
	return m
}
