package main

import "testing"

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct, beyond int
		value          float64
	}{
		{n: 24, pct: 58, beyond: 10, value: 14},  // one sweep-kernels campaign
		{n: 36, pct: 72, beyond: 10, value: 26},  // one sweep-events campaign
		{n: 11, pct: 9, beyond: 10, value: 1},    // smallest sample with a tail
		{n: 100, pct: 90, beyond: 10, value: 90}, // exactly p90
		{n: 1000, pct: 99, beyond: 10, value: 990},
		{n: 4317, pct: 99, beyond: 43, value: 4274}, // whole percentiles stop at p99
	} {
		got := tail(seq(tc.n))
		if got.Pct != tc.pct || got.Beyond != tc.beyond || got.Value != tc.value || got.N != tc.n {
			t.Errorf("tail(n=%d) = %+v, want p%d = %v with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("tail(n=%d) leaves %d samples beyond, want >= %d", tc.n, got.Beyond, minBeyond)
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	got := tail([]float64{3, 1, 2})
	if got.Value != 3 || got.Pct != 100 || got.Beyond != 0 {
		t.Fatalf("tail of 3 samples = %+v, want the maximum with none beyond", got)
	}
	if got := tail(nil); got != (tailStat{}) {
		t.Fatalf("tail(nil) = %+v", got)
	}
}

func TestWindowTail(t *testing.T) {
	// Three windows of 20 samples 1..20, with a burst of large values at
	// the end of the second: each window's p50 has ten samples beyond it.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 20; i++ {
			xs = append(xs, float64(i))
		}
	}
	for i := 30; i < 40; i++ {
		xs[i] = 1000
	}
	xs = append(xs, 5000, 5000) // not a whole window: left out
	got, n := windowTail(xs, 20)
	if n != 3 || got.Pct != 50 || got.Beyond != 10 || got.N != 20 || got.Value != 10 {
		t.Fatalf("windowTail = %+v over %d windows, want p50 = 10 of 20 samples over 3 windows", got, n)
	}
	if pooled := tail(xs); pooled.Value != 1000 {
		t.Fatalf("pooled tail = %+v, want the burst value 1000", pooled)
	}
	// No window size, or one larger than the run, is the plain rule.
	for _, w := range []int{0, 100} {
		got, n := windowTail(xs, w)
		if n != 1 || got != tail(xs) {
			t.Fatalf("windowTail(w=%d) = %+v over %d windows, want tail of all samples", w, got, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}
