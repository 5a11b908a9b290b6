package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {0.899, 90}, {0.901, 91}} {
		got, err := percentile(samples, c.q, 0)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
	if samples[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (nearest rank)", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 100)
	if _, err := percentile(samples, 0.9, minTail); err != nil {
		t.Errorf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(samples[:99], 0.9, minTail); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was reported")
	}
	if _, err := percentile(make([]float64, 1000), 0.99, minTail); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of no samples was reported")
	}
}

func TestRatios(t *testing.T) {
	if got := failRatio(3, 120); got != 0.025 {
		t.Errorf("failRatio(3, 120) = %v", got)
	}
	if got := failRatio(0, 0); got != 0 {
		t.Errorf("failRatio with nothing attempted = %v", got)
	}
	// 2 MiB at 0.002 Mbps plays for 8388.608 s.
	play := playout(2<<20, 0.002)
	if want := 8388608 * time.Millisecond; play != want {
		t.Errorf("playout = %v, want %v", play, want)
	}
	if got := stallRatio(play/4, play); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("stallRatio = %v, want 0.25", got)
	}
	if got := stallRatio(time.Second, 0); got != 0 {
		t.Errorf("stallRatio with no playout = %v", got)
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		// Eight values: the two lowest and two highest are dropped.
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5},
		// Five values: one dropped from each end.
		{[]float64{9, 1, 2, 3, 1000}, 14.0 / 3},
	} {
		if got := midMean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("midMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
