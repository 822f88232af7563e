package main

import "testing"

func TestQuantileWithCensoredSamples(t *testing.T) {
	c := completions{timeoutMs: 6000}
	for i := 1; i <= 90; i++ {
		c.done(float64(i)) // 1..90 ms, added in order
	}
	for i := 0; i < 10; i++ {
		c.timedOut()
	}
	if got, cens := c.quantile(0.5); got != 50 || cens {
		t.Errorf("p50 = %v censored=%v, want 50 uncensored", got, cens)
	}
	if got, cens := c.quantile(0.9); got != 90 || cens {
		t.Errorf("p90 = %v censored=%v, want 90 (the last completed sample)", got, cens)
	}
	if got, cens := c.quantile(0.91); got != 6000 || !cens {
		t.Errorf("p91 = %v censored=%v, want the 6000 ms timeout, censored", got, cens)
	}
	if got := c.within(45); got != 45 {
		t.Errorf("within(45) = %d, want 45", got)
	}
	if c.n() != 100 {
		t.Errorf("n = %d, want 100", c.n())
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	c := completions{timeoutMs: 10}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		c.done(v)
	}
	if got, _ := c.quantile(0.5); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
	if got, _ := c.quantile(1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if c.ms[0] != 5 {
		t.Error("quantile reordered the caller's samples")
	}
}

func TestAllCensored(t *testing.T) {
	c := completions{timeoutMs: 4000}
	c.timedOut()
	c.timedOut()
	if got, cens := c.quantile(0.5); got != 4000 || !cens {
		t.Errorf("p50 = %v censored=%v, want 4000 censored", got, cens)
	}
	if c.within(4000) != 0 {
		t.Error("censored node-slots counted as completed within the deadline")
	}
}

func TestPercentileSupportRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{100, 0.95, 5, false},
		{199, 0.95, 9, false},
		{200, 0.95, 10, true},
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.5, 0, false},
	}
	for _, tc := range cases {
		if got := beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
		if got := supported(tc.n, tc.q); got != tc.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
