// Package mbac implements the Measured Sum measurement-based admission
// control algorithm (Jamin, Shenker and Danzig, INFOCOM '97) that the paper
// uses as its router-based benchmark. Unlike endpoint admission control,
// Measured Sum runs inside the router: it admits a new flow of rate r when
// the measured load plus r does not exceed a target fraction of the link
// capacity. Admission is instantaneous — no probing, no set-up delay — and
// requests arriving at a router are serialized, which is exactly the
// structural advantage the paper contrasts with endpoint designs.
package mbac

import (
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
)

// Config parameterizes a Measured Sum controller.
type Config struct {
	// Target is the utilization target u: admit while load + r <= u*C.
	// This is the knob swept to trace the MBAC loss-load curve.
	Target float64
}

// The load estimator averages over sample periods S = 100 ms and takes
// the maximum over a window of T = 10 S = 1 s.
const (
	samplePeriod  = 0.1
	windowPeriods = 10
)

// MeasuredSum is the per-link admission controller. Attach it to a link's
// arrival tap and query Admit at flow-arrival instants.
type MeasuredSum struct {
	cfg    Config
	capBps float64
	est    *stats.WindowMax
}

// New returns a controller for a link of the given capacity (bits/s).
func New(capBps float64, cfg Config) *MeasuredSum {
	if cfg.Target <= 0 {
		panic("mbac: Config.Target must be positive")
	}
	return &MeasuredSum{
		cfg:    cfg,
		capBps: capBps,
		est:    stats.NewWindowMax(samplePeriod, windowPeriods),
	}
}

// Tap returns the arrival observer to install as the link's OnArrive hook.
// Only data packets contribute to the load measurement (with MBAC there is
// no probe traffic at all, but the hook is defensive).
func (m *MeasuredSum) Tap() func(now sim.Time, p *netsim.Packet) {
	return func(now sim.Time, p *netsim.Packet) {
		if p.Kind != netsim.Data {
			return
		}
		m.est.Arrive(now.Sec(), float64(p.Bits()))
	}
}

// Admit decides whether a flow of token rate r (bits/s) fits, and if so
// immediately folds r into the load estimate so that back-to-back requests
// are serialized correctly.
func (m *MeasuredSum) Admit(now sim.Time, r float64) bool {
	if m.est.Estimate(now.Sec())+r > m.cfg.Target*m.capBps {
		return false
	}
	m.est.Boost(r)
	return true
}

// Load returns the current load estimate in bits/s (for tests and
// diagnostics).
func (m *MeasuredSum) Load(now sim.Time) float64 { return m.est.Estimate(now.Sec()) }

// AdmitPath serializes an admission request across every controller on a
// path: the flow is admitted only if all hops accept. Hops that accepted
// are rolled forward (their estimates keep the boost) only when the whole
// path accepts; otherwise no hop retains the reservation. This mirrors
// hop-by-hop IntServ admission with atomic failure.
func AdmitPath(now sim.Time, r float64, hops []*MeasuredSum) bool {
	for i, h := range hops {
		if !h.Admit(now, r) {
			// Roll back boosts granted to earlier hops.
			for _, g := range hops[:i] {
				g.est.Boost(-r)
			}
			return false
		}
	}
	return true
}
