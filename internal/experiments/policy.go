package experiments

import (
	"fmt"

	"eac/internal/admission"
	"eac/internal/scenario"
)

// This file adds the policy-layer experiments, beyond the paper: a
// Figure-2-style loss-load sweep per admission policy and a
// thrashing-resistance comparison under nonstationary on/off load (the
// regime of Section 4.4, where a fixed ε is known to thrash).

// sweepPolicies lists the policy configurations the sweep compares. The
// token bucket's refill rate is set relative to the mode's arrival rate
// (half the offered flow rate), so the same fraction of flows is
// rate-limited at quick and paper scale.
func sweepPolicies(o Options) []admission.PolicyConfig {
	return []admission.PolicyConfig{
		{Kind: admission.PolicyStatic},
		{Kind: admission.PolicyEpochAdaptive},
		{Kind: admission.PolicyAlwaysAdmit},
		{Kind: admission.PolicyNeverAdmit},
		{Kind: admission.PolicyTokenBucket, BucketCap: 5, BucketRate: 0.5 / o.tau(3.5)},
	}
}

// policySweep regenerates the basic-scenario loss-load frontier once per
// admission policy. Probing policies sweep the Figure 2 ε grid across all
// four designs (for the adaptive policy the knob is the initial ε,
// clamped into its adaptation bounds); non-probing policies are single
// points on the in-band dropping design, where ε does not apply.
var policySweep = Experiment{
	ID:     "policy_sweep",
	Title:  "Per-policy loss-load sweep (EXP1, tau=3.5s, slow-start)",
	Header: []string{"policy", "design", "knob", "utilization", "loss_prob", "blocking"},
	Notes:  "knob is eps for probing policies (initial eps when adaptive); '-' otherwise",
	points: func(o Options) []Point {
		var pts []Point
		for _, pc := range sweepPolicies(o) {
			name := pc.Kind.String()
			if !pc.Kind.Probes() {
				cfg := eacCfg(o.basic(3.5), admission.DropInBand, admission.SlowStart, fixedEps(admission.DropInBand))
				cfg.Policy = pc
				pts = append(pts, Point{Label: "policy_sweep " + name, Cfg: cfg,
					Row: knobRow(name, admission.DropInBand.String(), "-")})
				continue
			}
			for _, d := range admission.Designs {
				for _, eps := range o.epsFor(d) {
					cfg := eacCfg(o.basic(3.5), d, admission.SlowStart, eps)
					cfg.Policy = pc
					pts = append(pts, Point{Label: fmt.Sprintf("policy_sweep %s %s eps=%.2f", name, d, eps),
						Cfg: cfg, Row: knobRow(name, d.String(), knob(eps))})
				}
			}
		}
		return pts
	},
}

// thrashLoad returns the on/off load modulation for the mode, a cycling
// two-phase schedule: the period scales with the flow dynamics (quick mode
// shrinks lifetimes tenfold), doubled arrivals in the on half and silence
// in the off half, keeping the mean offered load of the stationary
// scenario.
func thrashLoad(o Options) scenario.Schedule {
	half := 100.0
	if o.Quick {
		half = 10
	}
	return scenario.Schedule{Phases: []scenario.Phase{
		{Kind: scenario.PhaseConst, DurationSec: half, From: 2, To: 2},
		{Kind: scenario.PhaseConst, DurationSec: half, From: 0, To: 0},
	}}
}

// policyThrash compares admission policies under nonstationary on/off
// load — the thrashing regime of Section 4.4: arrival bursts drive the
// measured fraction past any fixed threshold, so a static ε alternates
// between over-admitting and over-blocking, while the epoch-adaptive
// policy tracks the cycle. In-band dropping, slow-start probing.
var policyThrash = Experiment{
	ID:     "policy_thrash",
	Title:  "Thrashing resistance under on/off load (EXP1, in-band dropping, slow-start)",
	Header: []string{"policy", "utilization", "loss_prob", "blocking", "p99_delay_ms"},
	Notes:  "on/off arrival modulation: rate doubles half the period, silent otherwise",
	points: func(o Options) []Point {
		base := o.basic(3.5)
		base.Schedule = thrashLoad(o)
		var pts []Point
		for _, pc := range sweepPolicies(o) {
			if pc.Kind == admission.PolicyNeverAdmit {
				continue // admits nothing, so nothing to thrash
			}
			name := pc.Kind.String()
			cfg := eacCfg(base, admission.DropInBand, admission.SlowStart, 0.02)
			cfg.Policy = pc
			pts = append(pts, Point{Label: "policy_thrash " + name, Cfg: cfg,
				Row: func(m scenario.Metrics) []string {
					return []string{name, f(m.Utilization), e(m.DataLossProb),
						f2(m.BlockingProb), f2(m.P99DelaySec * 1000)}
				}})
		}
		return pts
	},
}
