package main

import (
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailOfPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		// 100000 samples: p99.99 is rank 99990, leaving exactly 10.
		{100000, 99.99, 99990, 10},
		// 99999 samples: p99.99 leaves 9, so the tail drops to p99.9.
		{99999, 99.9, 99900, 99},
		{1000, 99, 990, 10},
		{1009, 99, 999, 10},
		{500, 90, 450, 50},
		{20, 50, 10, 10},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%v=%v with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
	}
}

func TestTailOfTooFewSamplesReportsMax(t *testing.T) {
	got := tailOf(seq(15))
	if got.Pct != 100 || got.Value != 15 || got.Beyond != 0 || got.N != 15 {
		t.Fatalf("got %+v, want the maximum flagged as p100 with none beyond", got)
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	// Four windows of 1000 samples; one holds a stall of 50 huge
	// samples. The whole-run p99 lands on the stall; the median
	// window's p99 does not.
	var samples []float64
	for w := 0; w < 4; w++ {
		for i := 0; i < tailWindow; i++ {
			v := float64(i%100 + 1)
			if w == 2 && i < 50 {
				v = 1e6
			}
			samples = append(samples, v)
		}
	}
	all := append([]float64(nil), samples...)
	sort.Float64s(all)
	if whole := tailOf(all); whole.Value != 1e6 {
		t.Fatalf("whole-run tail = %v, want the stall", whole.Value)
	}
	got, windows := windowedTail(samples)
	if windows != 4 || got.Pct != 99 || got.Value != 99 || got.N != tailWindow || got.Beyond != 10 {
		t.Fatalf("windowed tail = %+v over %d windows, want p99=99 of a %d-sample window over 4", got, windows, tailWindow)
	}
}

func TestWindowedTailSpreadsRemainderAndFallsBackToOneWindow(t *testing.T) {
	// 2500 samples make two windows of 1250; the 11th-largest of a
	// 1250-sample window is its p99.
	got, windows := windowedTail(seq(2500))
	if windows != 2 || got.N != 1250 || got.Pct != 99 {
		t.Fatalf("got %+v over %d windows, want p99 of 1250-sample windows over 2", got, windows)
	}
	got, windows = windowedTail(seq(50))
	if windows != 1 || got.N != 50 || got.Pct != 50 {
		t.Fatalf("got %+v over %d windows, want p50 of one 50-sample window", got, windows)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if p := percentile(seq(10), 50); p != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5 (nearest rank)", p)
	}
}

func TestLagIsMeasuredFromDueTime(t *testing.T) {
	// A 1 ms schedule. Request 0 runs on time and takes 50 µs.
	// Request 1 is issued 3 ms late (the generator stalled), so it and
	// request 2, issued right behind it, carry the stall in their lag;
	// their own service time is only 50 µs.
	p := pacer{t0: time.Unix(100, 0), period: time.Millisecond}
	us := time.Microsecond
	var r lagRecorder
	r.record(p.due(0), p.due(0), p.due(0).Add(50*us))
	start1 := p.due(1).Add(3 * time.Millisecond)
	r.record(p.due(1), start1, start1.Add(50*us))
	start2 := start1.Add(50 * us)
	r.record(p.due(2), start2, start2.Add(50*us))

	wantLag := []float64{50, 3050, 2100}
	wantLate := []float64{0, 3000, 2050}
	for i := range wantLag {
		if r.lag[i] != wantLag[i] || r.late[i] != wantLate[i] {
			t.Errorf("request %d: lag %v late %v, want %v and %v", i, r.lag[i], r.late[i], wantLag[i], wantLate[i])
		}
	}
}

func TestPacerDueTimesIgnoreProgress(t *testing.T) {
	p := pacer{t0: time.Unix(0, 0), period: 250 * time.Microsecond}
	if got := p.due(4).Sub(p.t0); got != time.Millisecond {
		t.Fatalf("due(4) = t0+%v, want t0+1ms", got)
	}
}
