package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. A tail is the highest of them that still leaves at least
// minBeyond samples above it, so it never rests on a handful of
// outliers.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is the number of samples a tail percentile must leave
// above itself.
const minBeyond = 10

// tail is one tail reading: the percentile chosen, its value, and
// how many samples lie beyond it out of how many were taken.
type tail struct {
	Pct    float64
	Value  float64
	Beyond int
	N      int
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples: the smallest index whose cumulative share reaches p.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(p, len(sorted))]
}

// median returns the median of xs (the mean of the middle two for an
// even count); it sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailOf picks the highest ladder percentile of sorted samples that
// leaves at least minBeyond samples beyond it. With too few samples
// for any rung it reports the maximum as percentile 100 with zero
// samples beyond, which the caller prints as such.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	for _, p := range tailLadder {
		i := rankIndex(p, n)
		if beyond := n - 1 - i; n > 0 && beyond >= minBeyond {
			return tail{Pct: p, Value: sorted[i], Beyond: beyond, N: n}
		}
	}
	if n == 0 {
		return tail{Pct: 100, Value: math.NaN()}
	}
	return tail{Pct: 100, Value: sorted[n-1], N: n}
}

// tailWindow is the number of consecutive samples one tail reading
// covers: p99 is the highest ladder percentile that leaves ten
// samples beyond it in a window of this size.
const tailWindow = 1000

// windowedTail cuts samples (in the order they were taken) into
// consecutive windows of tailWindow samples, takes each window's tail,
// and returns the window whose tail is the median of them. A single
// stall lands in one window, so the reading is the run's typical
// tail rather than its one worst moment, and every run reads the same
// percentile whatever its length. Fewer samples than one window make
// one short window. The percentile and sample counts reported are
// those of the chosen window; windows is how many were taken.
func windowedTail(samples []float64) (t tail, windows int) {
	windows = len(samples) / tailWindow
	if windows < 1 {
		windows = 1
	}
	size := len(samples) / windows
	tails := make([]tail, windows)
	for w := range tails {
		part := samples[w*size : (w+1)*size]
		s := append([]float64(nil), part...)
		sort.Float64s(s)
		tails[w] = tailOf(s)
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Value < tails[j].Value })
	return tails[(windows-1)/2], windows
}

// lagRecorder accounts an open-loop generator: every request has a
// due time fixed by the schedule, a start time when the generator
// actually issued it, and a done time. Lag is measured from due, so
// a stall that delays the generator charges every request queued
// behind it; late is how far the generator itself ran behind.
type lagRecorder struct {
	lag  []float64 // done - due, microseconds
	late []float64 // start - due, microseconds
}

func (r *lagRecorder) record(due, start, done time.Time) {
	r.lag = append(r.lag, float64(done.Sub(due))/float64(time.Microsecond))
	r.late = append(r.late, float64(start.Sub(due))/float64(time.Microsecond))
}

// pacer is an open-loop schedule: request i is due at t0 + i*period,
// whatever happened to earlier requests.
type pacer struct {
	t0     time.Time
	period time.Duration
}

func (p pacer) due(i int) time.Time { return p.t0.Add(time.Duration(i) * p.period) }
