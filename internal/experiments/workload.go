package experiments

import (
	"fmt"

	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// This file adds the flash-crowd experiment: admission dynamics through a
// sudden arrival spike, resolved in time. It is the workload-engine
// counterpart of policy_thrash — instead of a steady-state mean over an
// on/off cycle, it slices one spike trajectory into accounting windows so
// the blocking, loss, and ε series through the transient become a figure.

// flashSchedule returns the spike schedule for the mode: baseline rate
// until a quarter of the post-warmup span, a 4x flash crowd for a fifth of
// the span, then baseline again (held past the end). The phase clock is
// absolute simulation time, so every accounting window below sees the same
// trajectory.
func flashSchedule(warm, span float64) scenario.Schedule {
	return scenario.Schedule{
		Phases: []scenario.Phase{
			{Kind: scenario.PhaseConst, DurationSec: warm + 0.25*span, From: 1, To: 1},
			{Kind: scenario.PhaseConst, DurationSec: 0.2 * span, From: 4, To: 4},
			{Kind: scenario.PhaseConst, DurationSec: warm + span, From: 1, To: 1},
		},
		Hold: true,
	}
}

// flashCrowd resolves admission dynamics through a flash crowd in time,
// for the static policy vs the epoch-adaptive one. Warmup and Drain only
// move the accounting window, never the dynamics, so re-running the same
// seeded trajectory with successive windows yields a consistent time
// series per policy: blocking rises through the spike for both, but the
// adaptive policy's mean ε (the threshold in force) moves while the
// static one's stays pinned — the divergence the paper's Section 4.4
// thrashing analysis predicts. In-band dropping, slow-start probing.
var flashCrowd = Experiment{
	ID:     "flash_crowd",
	Title:  "Admission dynamics through a flash crowd (EXP1, in-band dropping, slow-start)",
	Header: []string{"policy", "t0_s", "t1_s", "eps", "blocking", "loss_prob", "utilization"},
	Notes:  "4x arrival spike; one row per accounting window over the same trajectory",
	points: func(o Options) []Point {
		base := o.basic(3.5)
		warm := base.Warmup.Sec()
		span := base.Duration.Sec() - warm
		base.Schedule = flashSchedule(warm, span)
		windows := 6
		if o.Sparse {
			windows = 4
		}
		var pts []Point
		for _, pc := range []admission.PolicyConfig{
			{Kind: admission.PolicyStatic},
			{Kind: admission.PolicyEpochAdaptive, Epoch: 10, TargetLoss: 0.005},
		} {
			name := pc.Kind.String()
			for wi := 0; wi < windows; wi++ {
				// Windows tile [warmup, duration-2s); the margin keeps the last
				// window clear of end-of-run drain effects.
				t0 := warm + (span-2)*float64(wi)/float64(windows)
				t1 := warm + (span-2)*float64(wi+1)/float64(windows)
				cfg := eacCfg(base, admission.DropInBand, admission.SlowStart, 0.02)
				cfg.Policy = pc
				cfg.Warmup = sim.Seconds(t0)
				cfg.Drain = cfg.Duration - sim.Seconds(t1)
				pts = append(pts, Point{Label: fmt.Sprintf("flash_crowd %s w%d", name, wi), Cfg: cfg,
					Row: func(m scenario.Metrics) []string {
						return []string{name, f2(t0), f2(t1), f(m.MeanEps),
							f2(m.BlockingProb), e(m.DataLossProb), f(m.Utilization)}
					}})
			}
		}
		return pts
	},
}
