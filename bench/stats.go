package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-th quantile of sorted by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// summary is how every end-to-end value is reported: the median of the
// per-round values with the sample it came from and its spread.
type summary struct {
	Median, Min, Max, IQR float64
	N                     int
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		Median: quantile(s, 0.5),
		Min:    s[0],
		Max:    s[len(s)-1],
		IQR:    quantile(s, 0.75) - quantile(s, 0.25),
		N:      len(s),
	}
}

// durs collects latencies of one operation class.
type durs []time.Duration

func (d durs) sortedUS() []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// p50us and p99us are in microseconds; 0 when empty.
func (d durs) p50us() float64 { return quantile(d.sortedUS(), 0.5) }
func (d durs) p99us() float64 { return quantile(d.sortedUS(), 0.99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
