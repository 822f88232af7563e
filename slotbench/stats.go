package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p95 over 100 samples rests on 5 values and is not shown.
const minBeyond = 10

// rank returns the 1-based nearest rank of the q-quantile of n samples:
// the smallest r with r >= q*n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supported reports whether n samples carry a q-quantile: at least
// minBeyond samples must lie above it.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// completions holds per node-slot completion times in milliseconds. A
// node-slot still incomplete at the slot timeout is counted as censored
// and ranks at the timeout value, so every percentile at or below the
// completed share is exact and the ones above read as the timeout, a
// lower bound.
type completions struct {
	timeoutMs float64
	ms        []float64 // completed node-slots only
	censored  int
}

func (c *completions) done(ms float64) { c.ms = append(c.ms, ms) }

func (c *completions) timedOut() { c.censored++ }

func (c *completions) n() int { return len(c.ms) + c.censored }

// within counts node-slots completed no later than limitMs.
func (c *completions) within(limitMs float64) int {
	k := 0
	for _, v := range c.ms {
		if v <= limitMs {
			k++
		}
	}
	return k
}

// quantile returns the nearest-rank q-quantile and whether it falls on a
// censored node-slot, in which case it reads as the timeout.
func (c *completions) quantile(q float64) (ms float64, censored bool) {
	n := c.n()
	if n == 0 {
		return 0, false
	}
	r := rank(n, q)
	if r > len(c.ms) {
		return c.timeoutMs, true
	}
	s := append([]float64(nil), c.ms...)
	sort.Float64s(s)
	return s[r-1], false
}

// median returns the middle of xs (mean of the two middle values for an
// even count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
