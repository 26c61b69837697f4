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
// buffer). Observed deltas over seeds {1,2,3}: util 0.018/0.049/0.094,
// blocking 0.033/0.028/0.125 at loads 0.6/1.1/1.5. See TESTING.md.
type hybridCase struct {
	cc     CrossConfig
	bounds Envelope
}

func hybridCases() []hybridCase {
	cs := crossCases()
	return []hybridCase{
		{cs[0].cc, utilBlock(0.05, 0.07)},
		{cs[1].cc, utilBlock(0.09, 0.07)},
		{cs[2].cc, utilBlock(0.15, 0.18)},
	}
}

// TestHybridCrossValidation runs the packet and hybrid engines from the
// one shared config per case — below, at, and above the thrashing
// transition — and asserts agreement within the documented bounds.
func TestHybridCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid cross-validation runs full simulations")
	}
	seeds := []uint64{1, 2, 3}
	for _, tc := range hybridCases() {
		tc := tc
		t.Run(tc.cc.Name, func(t *testing.T) {
			r, err := HybridPair(tc.cc, seeds, nil)
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
// calibrated bounds. If this passes Check, the envelopes are too loose
// to certify anything.
func TestHybridEnvelopeNonVacuous(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	tc := hybridCases()[1]
	r, err := HybridPair(tc.cc, []uint64{1, 2, 3}, func(c *scenario.Config) {
		c.LifetimeSec *= 3
	})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Check(tc.bounds)
	if err == nil {
		t.Fatalf("tripled hybrid load passed the envelope — bounds are vacuous\n%s", r.Report())
	}
	if !strings.Contains(err.Error(), "differs") {
		t.Errorf("failure is not a readable report: %v", err)
	}
}
