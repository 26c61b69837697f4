// Package fluid implements the analytic thrashing model of Section 2.2.3
// and Figure 1 of the paper: a continuous-time Markov chain over states
// (a, p) where a flows are accepted and p flows are probing. Flows arrive
// Poisson at rate lambda; accepted flows live for an exponential time with
// mean Tlife. Probes are exponential in LENGTH (packet transmissions, per
// Section 2.2.2), so a probe's completion rate is 1/Tprobe scaled by the
// fluid delivery fraction min(1, C/((a+p)r)): when the link is overloaded,
// probing slows down, which is precisely the feedback that makes the
// probing population "accumulate without bound" past the transition and
// collapses utilization, as the paper describes. Measurement is "perfect":
// at completion a flow is admitted iff the instantaneous fluid loss
// fraction ((a+p)r - C)/((a+p)r) is at most eps.
//
// The stationary distribution is computed with the GTH (Grassmann-Taksar-
// Heyman) state-reduction algorithm, which uses no subtractions and is
// therefore unconditionally stable even deep in the thrashing regime where
// the probing population piles up against the truncation level. States are
// ordered level-by-level so elimination never grows the transition
// bandwidth, keeping the solve O(states x bandwidth^2).
//
// Note on Figure 1's caption: the stated parameters (10 Mb/s link,
// 128 kb/s flows, one arrival per 3.5 s, 30 s lifetimes) give an offered
// load of ~11% of the link, which cannot produce high utilizations or a
// thrashing collapse anywhere. With consistent overload parameters the
// transition sits at Tprobe ~ (C/r)*tau — the probe length at which probe
// traffic alone saturates the link; its location in probe-time is
// proportional to the inter-arrival time (the paper notes the equivalence
// of scaling either axis), so the published 2.4-3.0 s transition
// corresponds to tau = 0.35 s at C/r = 7.8 flows. One known deviation:
// below the transition our utilization declines linearly with probe load
// (lambda*Tprobe*r/C) rather than holding near one; the paper's omitted
// derivation evidently discounts probe bandwidth in a way the text does
// not specify. All of the figure's qualitative claims — the sharp
// transition, the unbounded probing population, the utilization collapse,
// and in-band loss approaching one — are reproduced; see EXPERIMENTS.md.
package fluid

import "math"

// Params defines the model.
//
// Unset convention: a ZERO in any numeric field below means "use the
// Figure 1 default" — WithDefaults (applied by Solve before validation)
// replaces zeros wholesale, so an explicit zero cannot be expressed. That
// is safe here by construction: every defaulted field must be strictly
// positive for the model to be well-formed (Solve rejects non-positive
// rates and durations), so no valid configuration is clobbered. The one
// field where zero IS meaningful — Eps, whose zero is the strict
// zero-loss acceptance threshold — is deliberately NOT defaulted.
// TestParamsZeroAsUnset pins this contract; any new field whose zero is a
// valid configuration must follow the Eps precedent and stay out of
// WithDefaults (the clobbered-explicit-zero bug class).
type Params struct {
	Lambda  float64 // flow arrival rate, 1/s
	Tlife   float64 // mean accepted-flow lifetime, s
	Tprobe  float64 // mean probe duration at full delivery, s
	CapBps  float64 // link capacity C, bits/s
	RateBps float64 // per-flow rate r, bits/s
	Eps     float64 // acceptance threshold
	MaxP    int     // probing-population truncation level (default 400)
	// DataOnlyAdmission, if true, makes the perfect measurement at probe
	// completion gauge only the accepted data load (admit iff a+1 <= N)
	// instead of the default rule that includes concurrent probe load
	// (admit iff a+p <= N, the flow's own probe included, which is the
	// epsilon=0 zero-loss condition for both the in-band and out-of-band
	// models). The data-only variant is kept as an ablation: it never
	// thrashes, because admissions continue no matter how many probers
	// pile up.
	DataOnlyAdmission bool
}

// WithDefaults fills unset fields with the Figure 1 values (with the 1 Mb/s
// capacity correction described in the package comment).
func (p Params) WithDefaults() Params {
	if p.Lambda == 0 {
		p.Lambda = 1.0 / 3.5
	}
	if p.Tlife == 0 {
		p.Tlife = 30
	}
	if p.Tprobe == 0 {
		p.Tprobe = 3.0
	}
	if p.CapBps == 0 {
		p.CapBps = 1e6
	}
	if p.RateBps == 0 {
		p.RateBps = 128e3
	}
	if p.MaxP == 0 {
		p.MaxP = 400
	}
	return p
}

// admitLimit returns N such that a probe succeeds iff a+p <= N.
func (p Params) admitLimit() int {
	// ((a+p)r - C)/((a+p)r) <= eps  <=>  (a+p) <= C/((1-eps) r).
	return int(math.Floor(p.CapBps / ((1 - p.Eps) * p.RateBps)))
}

// Result holds the model's stationary metrics.
type Result struct {
	// Utilization is the accepted ("useful") load E[a]*r/C; for the
	// out-of-band model it equals the delivered data utilization, and the
	// paper plots the same utilization for both models.
	Utilization float64
	// InBandUtilization is the delivered data utilization when probes
	// share the data band, E[a*r*min(1, C/((a+p)r))]/C.
	InBandUtilization float64
	// InBandLoss is the stationary loss fraction of the in-band packet
	// stream (data and probes are indistinguishable at the link); the
	// out-of-band model has no data loss. Past the thrashing transition
	// it approaches one.
	InBandLoss float64
	// DataLoss is the loss fraction weighted by data load only.
	DataLoss float64
	// Blocking is the probability that a completing probe is rejected.
	Blocking float64
	// MeanAccepted and MeanProbing are E[a] and E[p].
	MeanAccepted, MeanProbing float64
}

// Solve computes the stationary distribution and metrics. It is the
// one-shot form of Solver.Solve: each call allocates fresh slabs, so
// sweeps that solve many parameter points should hold a Solver instead.
func Solve(p Params) (Result, error) {
	return NewSolver().Solve(p)
}
