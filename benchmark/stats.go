package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Rounds holds the repeated
// measurements behind it (three rounds of a timed window, the
// set-ups), so a reader sees the spread the value was taken from.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// percentile returns the p-th percentile of an ascending slice by the
// nearest-rank rule: an exact sample, never an interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeIt calls fn at least three times and until 20 ms have passed
// (at most 500 times) and returns the median duration of one call.
func timeIt(fn func()) time.Duration {
	var d []float64
	for start := time.Now(); len(d) < 3 || (time.Since(start) < 20*time.Millisecond && len(d) < 500); {
		t0 := time.Now()
		fn()
		d = append(d, float64(time.Since(t0)))
	}
	return time.Duration(median(d))
}

// timeBatch is timeIt for calls too short for the clock: fn runs n
// times per sample and the result is the median time of one call.
func timeBatch(n int, fn func(i int)) time.Duration {
	return timeIt(func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / time.Duration(n)
}
