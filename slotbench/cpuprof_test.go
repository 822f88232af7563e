package main

import (
	"math"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"pandas/internal/core.(*Node).planRound":               "core",
		"pandas/internal/core.(*Builder).PrepareAndSeed.func1": "core",
		"pandas/internal/gf65536.productWord (inline)":         "gf65536",
		"pandas/internal/ids.VerifyFrom":                       "ids",
		"pandas/internal/obsv.(*Observer).Emit":                "other",
		"main.(*endpoint).guard":                               "bench",
		"internal/runtime/syscall.Syscall6":                    "syscall",
		"syscall.Syscall6":                                     "syscall",
		"runtime.scanobject":                                   "gc",
		"runtime.gcDrain":                                      "gc",
		"runtime.(*gcWork).tryGet":                             "gc",
		"runtime.findRunnable":                                 "runtime",
		"runtime.futex":                                        "runtime",
		"crypto/sha256.block":                                  "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

const topOutput = `File: slotbench
Type: cpu
Duration: 8.14s, Total samples = 9.59s (117.81%)
Showing nodes accounting for 9.59s, 100% of 9.59s total
      flat  flat%   sum%        cum   cum%
     1.30s 13.56% 13.56%      1.30s 13.56%  pandas/internal/gf65536.productWord (inline)
   1080ms 11.26% 24.82%      1.09s 11.37%  pandas/internal/ids.VerifyFrom (inline)
     0.70s  7.19% 32.22%      0.69s  7.19%  internal/runtime/syscall.Syscall6
     0.40s  4.17% 52.66%      0.40s  4.17%  pandas/internal/gf65536.MulAdd4
     0.30s  3.13% 55.79%      1.83s  8.82%  runtime.scanobject
     0.20s  2.09% 57.88%      4.00s 41.71%  pandas/internal/core.(*Node).onSeed
         0     0% 57.88%      9.00s 93.85%  runtime.goexit
`

func TestFoldTopRows(t *testing.T) {
	rows := parseTop(topOutput)
	if len(rows) != 7 {
		t.Fatalf("parsed %d rows, want 7: %+v", len(rows), rows)
	}
	if rows[1].flat != 1080*time.Millisecond || rows[1].fn != "pandas/internal/ids.VerifyFrom (inline)" {
		t.Errorf("row 1 = %+v", rows[1])
	}
	shares := foldRows(rows)
	total := 1.30 + 1.08 + 0.70 + 0.40 + 0.30 + 0.20
	want := map[string]float64{
		"gf65536": (1.30 + 0.40) / total,
		"ids":     1.08 / total,
		"syscall": 0.70 / total,
		"gc":      0.30 / total,
		"core":    0.20 / total,
		"runtime": 0,
		"other":   0,
	}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], w)
		}
	}
	sum := 0.0
	for _, l := range cpuLayers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"0": 0, "1.5s": 1500 * time.Millisecond, "340ms": 340 * time.Millisecond,
		"20us": 20 * time.Microsecond, "2mins": 2 * time.Minute,
	} {
		got, err := parsePprofDuration(in)
		if err != nil || got != want {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parsePprofDuration("12%"); err == nil {
		t.Error("want an error for a percentage")
	}
}
