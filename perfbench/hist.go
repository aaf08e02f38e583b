package main

import (
	"math"
	"time"
)

// latHist records latencies in log-spaced buckets 0.1% wide, so a run
// of any length keeps quantiles to within 0.1% in constant memory: the
// benchmark's own bookkeeping must not grow the process it measures.
type latHist struct {
	counts []uint64
	n      uint64
}

const (
	histMin    = 100 * time.Nanosecond
	histGrowth = 1.001
	histMax    = 1000 * time.Second
)

var histBuckets = int(math.Log(float64(histMax)/float64(histMin))/math.Log(histGrowth)) + 2

func newLatHist() *latHist { return &latHist{counts: make([]uint64, histBuckets)} }

// bucketLow is the lower edge of bucket i; bucket 0 holds everything
// below histMin.
func bucketLow(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(histMin) * math.Pow(histGrowth, float64(i-1))
}

func (h *latHist) add(d time.Duration) {
	i := 0
	if d >= histMin {
		i = int(math.Log(float64(d)/float64(histMin))/math.Log(histGrowth)) + 1
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile, spreading a bucket's samples evenly
// across its width.
func (h *latHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			pos := (rank - float64(seen) + 0.5) / float64(c)
			return time.Duration(lo + (hi-lo)*pos)
		}
		seen += c
	}
	return time.Duration(bucketLow(len(h.counts) - 1))
}
