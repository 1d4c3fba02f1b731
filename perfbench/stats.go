package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by the nearest-rank method:
// the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(len(sorted), q), 1), len(sorted))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples;
// the epsilon keeps q·n from rounding up past an exact integer.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// tailLadder is the order the tail selector tries percentiles in. The
// rule is "the highest of p99/p95/p90 with at least tailMinBeyond samples
// beyond it"; p75 and p50 are the fallbacks for short runs, so a metric
// is never reported from fewer than tailMinBeyond samples above it when
// any percentile allows that.
var tailLadder = []struct {
	name string
	q    float64
}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}, {"p50", 0.50}}

const tailMinBeyond = 10

// tailPick chooses the tail percentile for n samples and returns its name
// and quantile.
func tailPick(n int) (string, float64) {
	for _, t := range tailLadder {
		if n-rank(n, t.q) >= tailMinBeyond {
			return t.name, t.q
		}
	}
	last := tailLadder[len(tailLadder)-1]
	return last.name, last.q
}

// dist summarizes one latency sample set.
type dist struct {
	N         int
	P50, Tail float64
	TailAt    string // the percentile the tail was read at
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	name, q := tailPick(len(s))
	return dist{N: len(s), P50: quantile(s, 0.5), Tail: quantile(s, q), TailAt: name}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
