package scenario

import (
	"math"
	"strings"
	"testing"

	"eac/internal/sim"
)

func quickTCPShare(eps float64) TCPShareConfig {
	return TCPShareConfig{
		InterArrival: 1.0,
		LifetimeSec:  60,
		Eps:          eps,
		Duration:     400 * sim.Second,
		Seed:         1,
	}
}

func TestTCPShareSmallEpsilonYieldsToTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := RunTCPShare(quickTCPShare(0))
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.7: with a small threshold, TCP-induced loss keeps the
	// admission-controlled flows out and TCP retains the link.
	if res.MeanTCPUtil < 0.7 {
		t.Fatalf("TCP utilization = %v with eps=0; EAC should be shut out", res.MeanTCPUtil)
	}
	if res.ACBlocking < 0.9 {
		t.Fatalf("EAC blocking = %v with eps=0, want near 1", res.ACBlocking)
	}
}

func TestTCPShareLargeEpsilonShares(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := RunTCPShare(quickTCPShare(0.05))
	if err != nil {
		t.Fatal(err)
	}
	// With a permissive threshold both classes get a significant share.
	// (The paper's "never substantially above 50%" observation holds at
	// its full-scale parameters — 20 TCP flows, tau=3.5 s — and is
	// checked by the Figure 11 benchmark, not this scaled-down test.)
	if res.MeanACUtil < 0.1 {
		t.Fatalf("AC utilization = %v with eps=0.05, want a significant share", res.MeanACUtil)
	}
	if res.MeanTCPUtil < 0.1 {
		t.Fatalf("TCP starved: %v", res.MeanTCPUtil)
	}
	if res.MeanACUtil+res.MeanTCPUtil > 1.05 {
		t.Fatalf("shares exceed the link: AC=%v TCP=%v", res.MeanACUtil, res.MeanTCPUtil)
	}
}

func TestTCPShareSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := quickTCPShare(0.02)
	cfg.Duration = 100 * sim.Second
	res, err := RunTCPShare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != len(res.TCPUtil) || len(res.Times) < 5 {
		t.Fatalf("series lengths: %d vs %d", len(res.Times), len(res.TCPUtil))
	}
	// Before admission-controlled arrivals begin (50 s), TCP alone should be
	// near full utilization.
	if res.TCPUtil[1] < 0.8 {
		t.Fatalf("TCP-only warm-up utilization = %v", res.TCPUtil[1])
	}
	for i, u := range res.TCPUtil {
		if u < 0 || u > 1.05 {
			t.Fatalf("utilization sample %d out of range: %v", i, u)
		}
	}
}

// TestTCPShareValidation: a value the run cannot use is an error naming
// the field — not a panic scheduling into the past (negative InterArrival),
// nor a table of plausible numbers (NaN LifetimeSec blocked every flow, NaN
// Eps admitted every flow, a negative Duration reported zeros).
func TestTCPShareValidation(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*TCPShareConfig)
	}{
		{"Eps", func(c *TCPShareConfig) { c.Eps = -1 }},
		{"Eps", func(c *TCPShareConfig) { c.Eps = math.NaN() }},
		{"Eps", func(c *TCPShareConfig) { c.Eps = math.Inf(1) }},
		{"InterArrival", func(c *TCPShareConfig) { c.InterArrival = -1 }},
		{"InterArrival", func(c *TCPShareConfig) { c.InterArrival = math.Inf(1) }},
		{"LifetimeSec", func(c *TCPShareConfig) { c.LifetimeSec = math.NaN() }},
		{"LifetimeSec", func(c *TCPShareConfig) { c.LifetimeSec = -30 }},
		{"Duration", func(c *TCPShareConfig) { c.Duration = -5 * sim.Second }},
	} {
		c := quickTCPShare(0)
		tc.mutate(&c)
		if _, err := RunTCPShare(c); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want one naming %s", tc.field, err, tc.field)
		}
	}
}
