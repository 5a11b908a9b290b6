package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a p90
// needs at least 100 samples, so its value is not just the largest one.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples:
// the smallest value with at least ceil(q·n) samples at or below it. It
// refuses to report a percentile that fewer than tail samples lie beyond.
func percentile(samples []float64, q float64, tail int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile p%g: quantile outside (0, 1)", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < tail {
		return 0, fmt.Errorf("percentile p%g: %d samples beyond it from %d, need %d",
			q*100, beyond, n, tail)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the nearest-rank p50, which needs no tail beyond it.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	v, _ := percentile(samples, 0.5, 0)
	return v
}

// midMean is the interquartile mean: the mean of the values left once the
// lowest and highest quarter are dropped. Like a median it ignores a few
// rounds slowed from outside the process; unlike one it averages the rest.
func midMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cut := len(sorted) / 4
	var sum float64
	for _, v := range sorted[cut : len(sorted)-cut] {
		sum += v
	}
	return sum / float64(len(sorted)-2*cut)
}

// ratio divides, reading 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stallRatio is rebuffering time over playout time: how much of what a
// viewer watched was spent frozen.
func stallRatio(stall, playout time.Duration) float64 {
	return ratio(stall.Seconds(), playout.Seconds())
}

// failRatio is the share of attempted sessions that did not deliver every
// byte verified: failed, rejected, busy, or carrying an unverified byte.
func failRatio(failed, attempted int) float64 {
	return ratio(float64(failed), float64(attempted))
}

// playout is how long a title's bytes play at rateMbps.
func playout(bytes int64, rateMbps float64) time.Duration {
	if rateMbps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes*8) / (rateMbps * 1e6) * float64(time.Second))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
