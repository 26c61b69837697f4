package conformance

import (
	"strings"
	"testing"

	"eac/internal/scenario"
)

// hybridCase pairs a shared config with the documented packet-vs-hybrid
// agreement envelope. The bounds are calibrated, not derived, and are
// tighter than the fluid-model envelopes at the same loads:
// both sides run the full admission machinery, so the only modelled
// difference is the data plane (diffusion queue approximation vs real
// buffer). Observed deltas of the means over hybridSeeds: util
// 0.014/0.066/0.077, blocking 0.034/0.090/0.113 at loads 0.6/1.1/1.5. See
// TESTING.md.
type hybridCase struct {
	cc     CrossConfig
	bounds Envelope
}

// hybridSeeds is the seed set of the hybrid envelopes: enough seeds that a
// mean's standard error (≈ 0.01 on blocking) is well inside every bound. The
// first 20 alone put the load-1.1 utilization gap at 0.087, the 40 at 0.066.
var hybridSeeds = scenario.DefaultSeeds(40)

func hybridCases() []hybridCase {
	cs := crossCases()
	critical := utilBlock(0.09, 0.07)
	// A finding, not a bound: at load 1.1 the hybrid blocks 0.09–0.10 more
	// than the packet engine in the 40-seed mean (EXPERIMENTS "Figure 2
	// (hybrid)", the load-1.1 blocking gap). Three seeds had hidden it.
	critical.BlockAbs = NotHeld
	return []hybridCase{
		{cs[0].cc, utilBlock(0.05, 0.07)},
		{cs[1].cc, critical},
		{cs[2].cc, utilBlock(0.15, 0.18)},
	}
}

// TestHybridCrossValidation runs the packet and hybrid engines from the
// one shared config per case — below, at, and above the thrashing
// transition — and asserts agreement of the seed means within the
// documented bounds.
func TestHybridCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid cross-validation runs full simulations")
	}
	for _, tc := range hybridCases() {
		tc := tc
		t.Run(tc.cc.Name, func(t *testing.T) {
			r, err := HybridPair(tc.cc, hybridSeeds, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + r.Report())
			if err := r.Check(tc.bounds); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestHybridEnvelopeNonVacuous proves the envelopes can actually fail: a
// hybrid run whose offered load is silently tripled must violate the
// calibrated bounds on a metric they hold. If this passes Check, the
// envelopes are too loose to certify anything. It runs the underload case,
// which the tripling takes to load 1.8: at load 1.1 blocking is not held,
// and utilization moves only 0.096 against its 0.09 bound.
func TestHybridEnvelopeNonVacuous(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	tc := hybridCases()[0]
	r, err := HybridPair(tc.cc, hybridSeeds, func(c *scenario.Config) {
		c.LifetimeSec *= 3
	})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Check(tc.bounds)
	if err == nil {
		t.Fatalf("tripled hybrid load passed the envelope — bounds are vacuous\n%s", r.Report())
	}
	if !strings.Contains(err.Error(), "utilization differs") {
		t.Errorf("failure is not a readable report on a held metric: %v", err)
	}
	t.Log(err)
}
