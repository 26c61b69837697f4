package conformance

import (
	"strings"
	"testing"

	"eac/internal/sim"
)

// crossCase pairs a shared config with its documented agreement envelope.
// The bounds are calibrated, not derived: the fluid model is bufferless
// and measures loss perfectly at probe completion, while the simulator
// has a (small) buffer, quantized probes and stochastic arrivals, so the
// envelopes widen with load. See TESTING.md for the policy.
type crossCase struct {
	cc     CrossConfig
	bounds Envelope
}

// utilBlock is the envelope both cross-validations hold: utilization and
// blocking. Loss is reported but not bounded (the fluid model is
// bufferless), and the fluid side has no delay.
func utilBlock(util, block float64) Envelope {
	return Envelope{UtilAbs: util, BlockAbs: block, LossAbs: NotHeld, DelayRel: NotHeld}
}

func crossCases() []crossCase {
	base := func(name string, offered float64) CrossConfig {
		const (
			capBps  = 1e6
			rateBps = 128e3
			tlife   = 30.0
		)
		return CrossConfig{
			Name:       name,
			Lambda:     offered * capBps / (tlife * rateBps),
			TlifeSec:   tlife,
			TprobeSec:  1.0,
			CapBps:     capBps,
			RateBps:    rateBps,
			Eps:        0.02,
			BufferPkts: 25,
			Duration:   600 * sim.Second,
			Warmup:     150 * sim.Second,
		}
	}
	return []crossCase{
		// Underload: both backends agree tightly on utilization ~= offered
		// load. Blocking needs more room: the fluid model's perfect
		// instantaneous measurement blocks marginal flows that the
		// buffered, probe-sampled simulator admits (observed delta ~0.06).
		{base("underload-0.6", 0.6), utilBlock(0.08, 0.10)},
		// Around capacity: admission starts biting; the discreteness of
		// "one more 128k flow" against a 1M link costs ~0.13 of capacity,
		// so the envelope widens (observed deltas ~0.09 util, ~0.11 blocking).
		{base("critical-1.1", 1.1), utilBlock(0.14, 0.16)},
		// Clear overload: both backends must show heavy blocking and a
		// utilization pinned near the admissible region's edge (observed
		// deltas ~0.14 util, ~0.19 blocking).
		{base("overload-1.5", 1.5), utilBlock(0.18, 0.23)},
	}
}

// TestCrossValidation runs the simulator and the fluid model from the one
// shared config per case and asserts agreement within the documented
// bounds, logging the side-by-side report either way.
func TestCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation runs full simulations")
	}
	seeds := []uint64{1, 2, 3}
	for _, tc := range crossCases() {
		tc := tc
		t.Run(tc.cc.Name, func(t *testing.T) {
			r, err := FluidPair(tc.cc, seeds)
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

// TestCrossCheckReportsDivergence feeds Check a result that violates its
// bounds and asserts the failure is a readable side-by-side report, not a
// bare number.
func TestCrossCheckReportsDivergence(t *testing.T) {
	r := Pair{Name: "synthetic", RefLabel: "fluid", GotLabel: "simulator"}
	r.Got.Utilization = 0.80
	r.Ref.Utilization = 0.55
	r.Got.BlockingProb = 0.01
	r.Ref.BlockingProb = 0.02
	r.Got.DataLossProb = 0.5 // not held: must not be reported as a violation
	err := r.Check(utilBlock(0.10, 0.10))
	if err == nil {
		t.Fatal("divergent result passed Check")
	}
	for _, want := range []string{"utilization differs", "simulator", "fluid", "blocking"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report missing %q:\n%s", want, err)
		}
	}
	if strings.Contains(err.Error(), "data loss differs") || strings.Contains(err.Error(), "blocking differs") {
		t.Errorf("a quantity inside (or without) its bound was reported:\n%s", err)
	}
}
