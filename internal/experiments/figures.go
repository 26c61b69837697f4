package experiments

import (
	"fmt"

	"eac/internal/admission"
	"eac/internal/fluid"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// figure1 regenerates the thrashing fluid model curves: utilization and
// in-band loss probability versus mean probe duration.
//
// The model uses a 1 Mb/s link, 128 kb/s flows, 30 s lifetimes and one
// arrival per 3.5 s (offered load 110%; the caption's 10 Mb/s link would
// put the offered load at 11% and preclude thrashing entirely). With
// these consistent parameters the transition sits at
// Tprobe ~ (C/r)*tau = 27.3 s; the published x-axis (1.8-3.6 s,
// transition ~2.6 s) corresponds to a 10x higher arrival rate, a pure
// rescaling of time that the paper itself notes ("similar curves would
// result if we increased the Poisson arrival rate of flows with a fixed
// average probe time").
var figure1 = Experiment{
	ID:     "figure1",
	Title:  "Thrashing fluid model: utilization and in-band loss vs probe duration",
	Header: []string{"probe_s", "utilization", "inband_loss", "blocking", "mean_probing"},
	Notes:  "transition at Tprobe ~ (C/r)*tau = 27.3 s; the paper's 2.6 s x-axis is the same curve at 10x the arrival rate",
	points: func(o Options) []Point {
		maxP := 1500
		if o.Quick {
			maxP = 500
		}
		var pts []Point
		for _, tp := range []float64{5, 10, 15, 20, 24, 26, 28, 30, 34, 40} {
			pts = append(pts, Point{Label: fmt.Sprintf("figure1 Tp=%.1f", tp), Solve: func() ([]string, error) {
				res, err := fluid.Solve(fluid.Params{Tprobe: tp, MaxP: maxP})
				return []string{f2(tp), f(res.Utilization), e(res.InBandLoss), f(res.Blocking), f2(res.MeanProbing)}, err
			}})
		}
		return pts
	},
}

// lossLoadPoints declares one loss-load curve (a row per operating point)
// for every design — the (design, eps) grid under slow-start probing —
// plus the MBAC reference targets.
func (o Options) lossLoadPoints(id string, base scenario.Config) []Point {
	var pts []Point
	for _, d := range admission.Designs {
		for _, eps := range o.epsFor(d) {
			pts = append(pts, Point{Label: fmt.Sprintf("%s %s eps=%.2f", id, d, eps),
				Cfg: eacCfg(base, d, admission.SlowStart, eps), Row: knobRow(d.String(), knob(eps))})
		}
	}
	return append(pts, o.mbacPoints(id, base)...)
}

// mbacPoints declares the MBAC reference curve, one point per utilization
// target.
func (o Options) mbacPoints(id string, base scenario.Config) []Point {
	var pts []Point
	for _, u := range o.targets() {
		pts = append(pts, Point{Label: fmt.Sprintf("%s MBAC u=%.2f", id, u),
			Cfg: mbacCfg(base, u), Row: knobRow("MBAC", knob(u))})
	}
	return pts
}

// basic is the Section 4.1 scenario at inter-arrival tau: EXP1 sources.
func (o Options) basic(tau float64) scenario.Config {
	base := o.base(tau)
	base.Classes = classes1(trafgen.EXP1)
	return base
}

// figure2 regenerates the basic-scenario loss-load curves: EXP1 sources,
// tau = 3.5 s, slow-start probing, the four endpoint designs and the MBAC
// benchmark.
var figure2 = Experiment{
	ID:     "figure2",
	Title:  "Basic scenario loss-load curves (EXP1, tau=3.5s, slow-start)",
	Header: []string{"design", "knob", "utilization", "loss_prob", "blocking"},
	Notes:  "knob is eps for endpoint designs and the utilization target for MBAC",
	points: func(o Options) []Point { return o.lossLoadPoints("figure2", o.basic(3.5)) },
}

// figure2Hybrid regenerates the Figure 2 endpoint-design grid twice —
// once on the packet engine, once on the hybrid fluid/packet engine —
// and emits each operating point side by side. It is the experiment-level
// face of the hybrid crossval: the columns make the engines' agreement
// (and the hybrid's systematic smoothing of burst loss) directly
// readable. MBAC is omitted (the hybrid engine requires an endpoint
// method).
var figure2Hybrid = Experiment{
	ID:    "figure2_hybrid",
	Title: "Basic scenario, packet vs hybrid engine (EXP1, tau=3.5s, slow-start)",
	Header: []string{"design", "eps", "util_pkt", "util_hyb",
		"loss_pkt", "loss_hyb", "block_pkt", "block_hyb"},
	Notes: "same operating points as figure2; _hyb columns ran with Config.Hybrid enabled",
	points: func(o Options) []Point {
		var pts []Point
		var pkt scenario.Metrics // set by each packet point's row, read by its hybrid point's
		for _, d := range admission.Designs {
			for _, eps := range o.epsFor(d) {
				cfg := eacCfg(o.basic(3.5), d, admission.SlowStart, eps)
				hcfg := cfg
				hcfg.Hybrid.Enabled = true
				label := fmt.Sprintf("figure2_hybrid %s eps=%.2f", d, eps)
				pts = append(pts,
					Point{Label: label + " pkt", Cfg: cfg, Row: func(m scenario.Metrics) []string {
						pkt = m
						return nil
					}},
					Point{Label: label + " hyb", Cfg: hcfg, Row: func(m scenario.Metrics) []string {
						return []string{d.String(), knob(eps),
							f(pkt.Utilization), f(m.Utilization),
							e(pkt.DataLossProb), e(m.DataLossProb),
							f2(pkt.BlockingProb), f2(m.BlockingProb)}
					}})
			}
		}
		return pts
	},
}

// figure3 compares 5 s and 25 s slow-start probing for in-band dropping.
var figure3 = Experiment{
	ID:     "figure3",
	Title:  "Longer probing (in-band dropping, 5 s vs 25 s slow-start)",
	Header: []string{"probe_len", "eps", "utilization", "loss_prob", "blocking"},
	points: func(o Options) []Point {
		var pts []Point
		for _, probeDur := range []sim.Time{5 * sim.Second, 25 * sim.Second} {
			for _, eps := range o.epsFor(admission.DropInBand) {
				cfg := eacCfg(o.basic(3.5), admission.DropInBand, admission.SlowStart, eps)
				cfg.AC.ProbeDur = probeDur
				cfg.AC.StageDur = probeDur / 5
				pts = append(pts, Point{Label: fmt.Sprintf("figure3 probe=%v eps=%.2f", probeDur, eps),
					Cfg: cfg, Row: knobRow(fmt.Sprintf("%gs", probeDur.Sec()), knob(eps))})
			}
		}
		return pts
	},
}

// highLoad declares one of Figures 4-7: the design under 400% offered
// load (tau = 1.0 s) with the three probing algorithms plus the MBAC
// reference.
func highLoad(id string, d admission.Design) Experiment {
	return Experiment{
		ID:     id,
		Title:  fmt.Sprintf("High load (tau=1.0s): %s", d),
		Header: []string{"prober", "knob", "utilization", "loss_prob", "blocking"},
		points: func(o Options) []Point {
			base := o.basic(1.0)
			var pts []Point
			for _, kind := range []admission.ProberKind{admission.Simple, admission.SlowStart, admission.EarlyReject} {
				for _, eps := range o.epsFor(d) {
					pts = append(pts, Point{Label: fmt.Sprintf("%s %s eps=%.2f", id, kind, eps),
						Cfg: eacCfg(base, d, kind, eps), Row: knobRow(kind.String(), knob(eps))})
				}
			}
			return append(pts, o.mbacPoints(id, base)...)
		},
	}
}

// robustnessScenario describes one panel of Figure 8, which Figure 9
// revisits by name.
type robustnessScenario struct {
	id, name string
	tau      float64
	classes  []scenario.ClassSpec
	links    []scenario.LinkSpec
}

func robustnessScenarios() []robustnessScenario {
	return []robustnessScenario{
		{"8a", "EXP2", 3.5, classes1(trafgen.EXP2), nil}, // 4x burst rate, same average
		{"8b", "EXP3", 7.0, classes1(trafgen.EXP3), nil}, // 2x burst and average
		{"8c", "POO1", 3.5, classes1(trafgen.POO1), nil}, // Pareto on/off (LRD)
		{"8d", "StarWars", 8.0, classes1(trafgen.StarWars), nil},
		{"8e", "Heterogeneous", 3.5, heterogeneousMix(), nil},
		{"8f", "LowMux", 35, classes1(trafgen.EXP1),
			[]scenario.LinkSpec{{RateBps: 1e6}}},
	}
}

// config returns the scenario's base config under o.
func (rs robustnessScenario) config(o Options) scenario.Config {
	base := o.base(rs.tau)
	base.Classes, base.Links = rs.classes, rs.links
	return base
}

// figure8 regenerates the robustness panels: loss-load curves across six
// load patterns.
var figure8 = Experiment{
	ID:     "figure8",
	Title:  "Robustness: loss-load curves across load patterns",
	Header: []string{"panel", "design", "knob", "utilization", "loss_prob", "blocking"},
	points: func(o Options) []Point {
		var pts []Point
		for _, rs := range robustnessScenarios() {
			for _, p := range o.lossLoadPoints("figure"+rs.id, rs.config(o)) {
				row := p.Row
				p.Row = func(m scenario.Metrics) []string { return append([]string{rs.id}, row(m)...) }
				pts = append(pts, p)
			}
		}
		return pts
	},
}

// figure9 regenerates the fixed-threshold comparison: the loss rate of
// each design at eps=0.01 (in-band) / 0.05 (out-of-band) across all
// scenarios, exposing the order-of-magnitude spread that makes a priori
// loss prediction hard.
var figure9 = Experiment{
	ID:     "figure9",
	Title:  "Loss at fixed eps across scenarios (0.01 in-band / 0.05 out-of-band)",
	Header: []string{"scenario", "design", "loss_prob", "utilization"},
	points: func(o Options) []Point {
		scs := append([]robustnessScenario{
			{name: "EXP1", tau: 3.5, classes: classes1(trafgen.EXP1)},
			{name: "HeavyLoad", tau: 1.0, classes: classes1(trafgen.EXP1)},
		}, robustnessScenarios()...)
		var pts []Point
		for _, s := range scs {
			for _, d := range admission.Designs {
				pts = append(pts, Point{Label: fmt.Sprintf("figure9 %s %s", s.name, d),
					Cfg: eacCfg(s.config(o), d, admission.SlowStart, fixedEps(d)),
					Row: func(m scenario.Metrics) []string {
						return []string{s.name, d.String(), e(m.DataLossProb), f(m.Utilization)}
					}})
			}
		}
		return pts
	},
}

// figure11 regenerates the legacy-router coexistence experiment: TCP
// utilization against admission-controlled traffic for several eps. Its
// points run a different simulator entry point (RunTCPShare) at seed 1,
// whatever Options.Seeds says, without the cache or observability.
var figure11 = Experiment{
	ID:     "figure11",
	Title:  "TCP utilization vs eps at a legacy drop-tail router (20 TCP flows)",
	Header: []string{"eps", "tcp_util", "ac_util", "ac_blocking"},
	Notes:  "small eps: TCP-induced loss shuts EAC out; larger eps: roughly fair sharing",
	points: func(o Options) []Point {
		epsList := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
		if o.Quick {
			epsList = []float64{0, 0.02, 0.05}
		}
		var pts []Point
		for _, eps := range epsList {
			pts = append(pts, Point{Label: fmt.Sprintf("figure11 eps=%.2f", eps), Solve: func() ([]string, error) {
				res, err := scenario.RunTCPShare(scenario.TCPShareConfig{
					Eps:          eps,
					InterArrival: o.tau(3.5),
					LifetimeSec:  o.lifetime(),
					Duration:     o.duration() * 2,
					Seed:         1,
				})
				return []string{knob(eps), f(res.MeanTCPUtil), f(res.MeanACUtil), f2(res.ACBlocking)}, err
			}})
		}
		return pts
	},
}
