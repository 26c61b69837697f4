package experiments

import (
	"fmt"

	"eac/internal/admission"
	"eac/internal/fluid"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Figure1 regenerates the thrashing fluid model curves: utilization and
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
func Figure1(o Options) (Table, error) {
	t := Table{
		ID:     "figure1",
		Title:  "Thrashing fluid model: utilization and in-band loss vs probe duration",
		Header: []string{"probe_s", "utilization", "inband_loss", "blocking", "mean_probing"},
		Notes:  "transition at Tprobe ~ (C/r)*tau = 27.3 s; the paper's 2.6 s x-axis is the same curve at 10x the arrival rate",
	}
	maxP := 1500
	if o.Quick {
		maxP = 500
	}
	probes := []float64{5, 10, 15, 20, 24, 26, 28, 30, 34, 40}
	err := runOrdered(o.workers(), len(probes),
		func(_, i int) (fluid.Result, error) {
			res, err := fluid.Solve(fluid.Params{Tprobe: probes[i], MaxP: maxP})
			if err != nil {
				return res, fmt.Errorf("figure1 Tprobe=%v: %w", probes[i], err)
			}
			return res, nil
		},
		func(i int, res fluid.Result) error {
			o.logf("figure1 Tp=%.1f util=%.3f loss=%.3f", probes[i], res.Utilization, res.InBandLoss)
			t.Rows = append(t.Rows, []string{
				f2(probes[i]), f(res.Utilization), e(res.InBandLoss), f(res.Blocking), f2(res.MeanProbing),
			})
			return nil
		})
	return t, err
}

// lossLoadJobs declares one loss-load curve (a row per operating point)
// for every design of the given sweep: the (design, eps) grid plus the
// MBAC reference targets. Rows reach the table through emit, letting
// Figure 8 prefix its panel id.
func (o Options) lossLoadJobs(id string, emit func([]string), base scenario.Config, kind admission.ProberKind, withMBAC bool) []Job {
	var jobs []Job
	knobRow := func(name, knob string) func(m scenario.Metrics) []string {
		return func(m scenario.Metrics) []string {
			return []string{name, knob, f(m.Utilization), e(m.DataLossProb), f2(m.BlockingProb)}
		}
	}
	for _, d := range admission.Designs {
		for _, eps := range o.epsFor(d) {
			cfg := eacCfg(base, d, kind, eps)
			jobs = append(jobs, o.stdJob(fmt.Sprintf("%s %s eps=%.2f", id, d, eps), cfg,
				emit, knobRow(d.String(), fmt.Sprintf("%.2f", eps))))
		}
	}
	if withMBAC {
		for _, u := range o.targets() {
			jobs = append(jobs, o.stdJob(fmt.Sprintf("%s MBAC u=%.2f", id, u), mbacCfg(base, u),
				emit, knobRow("MBAC", fmt.Sprintf("%.2f", u))))
		}
	}
	return jobs
}

// Figure2 regenerates the basic-scenario loss-load curves: EXP1 sources,
// tau = 3.5 s, slow-start probing, the four endpoint designs and the MBAC
// benchmark.
func Figure2(o Options) (Table, error) {
	t := Table{
		ID:     "figure2",
		Title:  "Basic scenario loss-load curves (EXP1, tau=3.5s, slow-start)",
		Header: []string{"design", "knob", "utilization", "loss_prob", "blocking"},
		Notes:  "knob is eps for endpoint designs and the utilization target for MBAC",
	}
	base := o.base(3.5)
	base.Classes = classes1(trafgen.EXP1)
	err := o.runJobs(o.lossLoadJobs(t.ID, rowsOf(&t), base, admission.SlowStart, true))
	return t, err
}

// Figure2Hybrid regenerates the Figure 2 endpoint-design grid twice —
// once on the packet engine, once on the hybrid fluid/packet engine —
// and emits each operating point side by side. It is the experiment-level
// face of the hybrid crossval: the columns make the engines' agreement
// (and the hybrid's systematic smoothing of burst loss) directly
// readable. MBAC is omitted (the hybrid engine requires an endpoint
// method).
func Figure2Hybrid(o Options) (Table, error) {
	t := Table{
		ID:    "figure2_hybrid",
		Title: "Basic scenario, packet vs hybrid engine (EXP1, tau=3.5s, slow-start)",
		Header: []string{"design", "eps", "util_pkt", "util_hyb",
			"loss_pkt", "loss_hyb", "block_pkt", "block_hyb"},
		Notes: "same operating points as figure2; _hyb columns ran with Config.Hybrid enabled",
	}
	base := o.base(3.5)
	base.Classes = classes1(trafgen.EXP1)
	var jobs []Job
	var pkt scenario.Metrics // filled by each point's packet job, read by its hybrid job
	for _, d := range admission.Designs {
		for _, eps := range o.epsFor(d) {
			cfg := eacCfg(base, d, admission.SlowStart, eps)
			hcfg := cfg
			hcfg.Hybrid.Enabled = true
			d, eps := d, eps
			// Done callbacks fire in declaration order on one goroutine, so
			// the packet job's metrics are in pkt when the hybrid job lands.
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("%s %s eps=%.2f pkt", t.ID, d, eps),
				Cfg:   cfg,
				Done: func(mm scenario.MultiMetrics) error {
					pkt = mm.Mean
					return nil
				},
			})
			jobs = append(jobs, o.stdJob(fmt.Sprintf("%s %s eps=%.2f hyb", t.ID, d, eps), hcfg,
				rowsOf(&t), func(m scenario.Metrics) []string {
					return []string{d.String(), fmt.Sprintf("%.2f", eps),
						f(pkt.Utilization), f(m.Utilization),
						e(pkt.DataLossProb), e(m.DataLossProb),
						f2(pkt.BlockingProb), f2(m.BlockingProb)}
				}))
		}
	}
	err := o.runJobs(jobs)
	return t, err
}

// Figure3 compares 5 s and 25 s slow-start probing for in-band dropping.
func Figure3(o Options) (Table, error) {
	t := Table{
		ID:     "figure3",
		Title:  "Longer probing (in-band dropping, 5 s vs 25 s slow-start)",
		Header: []string{"probe_len", "eps", "utilization", "loss_prob", "blocking"},
	}
	base := o.base(3.5)
	base.Classes = classes1(trafgen.EXP1)
	var jobs []Job
	for _, probeDur := range []sim.Time{5 * sim.Second, 25 * sim.Second} {
		for _, eps := range o.epsFor(admission.DropInBand) {
			cfg := eacCfg(base, admission.DropInBand, admission.SlowStart, eps)
			cfg.AC.ProbeDur = probeDur
			cfg.AC.StageDur = probeDur / 5
			probeDur, eps := probeDur, eps
			jobs = append(jobs, o.stdJob(fmt.Sprintf("figure3 probe=%v eps=%.2f", probeDur, eps), cfg,
				rowsOf(&t), func(m scenario.Metrics) []string {
					return []string{
						fmt.Sprintf("%gs", probeDur.Sec()), fmt.Sprintf("%.2f", eps),
						f(m.Utilization), e(m.DataLossProb), f2(m.BlockingProb),
					}
				}))
		}
	}
	err := o.runJobs(jobs)
	return t, err
}

// highLoad regenerates one of Figures 4-7: the design under 400% offered
// load (tau = 1.0 s) with the three probing algorithms plus the MBAC
// reference.
func (o Options) highLoad(id string, d admission.Design) (Table, error) {
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("High load (tau=1.0s): %s", d),
		Header: []string{"prober", "knob", "utilization", "loss_prob", "blocking"},
	}
	base := o.base(1.0)
	base.Classes = classes1(trafgen.EXP1)
	knobRow := func(name, knob string) func(m scenario.Metrics) []string {
		return func(m scenario.Metrics) []string {
			return []string{name, knob, f(m.Utilization), e(m.DataLossProb), f2(m.BlockingProb)}
		}
	}
	var jobs []Job
	for _, kind := range []admission.ProberKind{admission.Simple, admission.SlowStart, admission.EarlyReject} {
		for _, eps := range o.epsFor(d) {
			cfg := eacCfg(base, d, kind, eps)
			jobs = append(jobs, o.stdJob(fmt.Sprintf("%s %s eps=%.2f", id, kind, eps), cfg,
				rowsOf(&t), knobRow(kind.String(), fmt.Sprintf("%.2f", eps))))
		}
	}
	for _, u := range o.targets() {
		jobs = append(jobs, o.stdJob(fmt.Sprintf("%s MBAC u=%.2f", id, u), mbacCfg(base, u),
			rowsOf(&t), knobRow("MBAC", fmt.Sprintf("%.2f", u))))
	}
	err := o.runJobs(jobs)
	return t, err
}

// Figure4 is high load with in-band dropping.
func Figure4(o Options) (Table, error) { return o.highLoad("figure4", admission.DropInBand) }

// Figure5 is high load with out-of-band dropping.
func Figure5(o Options) (Table, error) { return o.highLoad("figure5", admission.DropOutOfBand) }

// Figure6 is high load with in-band marking.
func Figure6(o Options) (Table, error) { return o.highLoad("figure6", admission.MarkInBand) }

// Figure7 is high load with out-of-band marking.
func Figure7(o Options) (Table, error) { return o.highLoad("figure7", admission.MarkOutOfBand) }

// robustnessScenario describes one panel of Figure 8.
type robustnessScenario struct {
	id    string
	desc  string
	tau   float64
	setup func(*scenario.Config)
}

func robustnessScenarios() []robustnessScenario {
	return []robustnessScenario{
		{"8a", "EXP2: 4x burst rate, same average", 3.5, func(c *scenario.Config) {
			c.Classes = classes1(trafgen.EXP2)
		}},
		{"8b", "EXP3: 2x burst and average", 7.0, func(c *scenario.Config) {
			c.Classes = classes1(trafgen.EXP3)
		}},
		{"8c", "POO1: Pareto on/off (LRD)", 3.5, func(c *scenario.Config) {
			c.Classes = classes1(trafgen.POO1)
		}},
		{"8d", "Synthetic Star Wars trace", 8.0, func(c *scenario.Config) {
			c.Classes = classes1(trafgen.StarWars)
		}},
		{"8e", "Heterogeneous mix", 3.5, func(c *scenario.Config) {
			c.Classes = []scenario.ClassSpec{
				{Name: "EXP1", Preset: trafgen.EXP1, Weight: 1, Eps: -1},
				{Name: "EXP2", Preset: trafgen.EXP2, Weight: 1, Eps: -1},
				{Name: "EXP4", Preset: trafgen.EXP4, Weight: 1, Eps: -1},
				{Name: "POO1", Preset: trafgen.POO1, Weight: 1, Eps: -1},
			}
		}},
		{"8f", "Low multiplexing (1 Mb/s link)", 35, func(c *scenario.Config) {
			c.Classes = classes1(trafgen.EXP1)
			c.Links = []scenario.LinkSpec{{RateBps: 1e6}}
		}},
	}
}

// Figure8 regenerates the robustness panels: loss-load curves across six
// load patterns.
func Figure8(o Options) (Table, error) {
	t := Table{
		ID:     "figure8",
		Title:  "Robustness: loss-load curves across load patterns",
		Header: []string{"panel", "design", "knob", "utilization", "loss_prob", "blocking"},
	}
	var jobs []Job
	for _, rs := range robustnessScenarios() {
		base := o.base(rs.tau)
		rs.setup(&base)
		panel := rs.id
		emit := func(cells []string) {
			t.Rows = append(t.Rows, append([]string{panel}, cells...))
		}
		jobs = append(jobs, o.lossLoadJobs("figure"+rs.id, emit, base, admission.SlowStart, true)...)
	}
	err := o.runJobs(jobs)
	return t, err
}

// Figure9 regenerates the fixed-threshold comparison: the loss rate of
// each design at eps=0.01 (in-band) / 0.05 (out-of-band) across all
// scenarios, exposing the order-of-magnitude spread that makes a priori
// loss prediction hard.
func Figure9(o Options) (Table, error) {
	t := Table{
		ID:     "figure9",
		Title:  "Loss at fixed eps across scenarios (0.01 in-band / 0.05 out-of-band)",
		Header: []string{"scenario", "design", "loss_prob", "utilization"},
	}
	type sc struct {
		name  string
		tau   float64
		setup func(*scenario.Config)
	}
	scs := []sc{
		{"EXP1", 3.5, func(c *scenario.Config) { c.Classes = classes1(trafgen.EXP1) }},
		{"HeavyLoad", 1.0, func(c *scenario.Config) { c.Classes = classes1(trafgen.EXP1) }},
	}
	for _, rs := range robustnessScenarios() {
		rs := rs
		name := rs.id
		switch rs.id {
		case "8a":
			name = "EXP2"
		case "8b":
			name = "EXP3"
		case "8c":
			name = "POO1"
		case "8d":
			name = "StarWars"
		case "8e":
			name = "Heterogeneous"
		case "8f":
			name = "LowMux"
		}
		scs = append(scs, sc{name, rs.tau, rs.setup})
	}
	var jobs []Job
	for _, s := range scs {
		base := o.base(s.tau)
		s.setup(&base)
		for _, d := range admission.Designs {
			cfg := eacCfg(base, d, admission.SlowStart, fixedEps(d))
			name, d := s.name, d
			jobs = append(jobs, o.stdJob(fmt.Sprintf("figure9 %s %s", name, d), cfg,
				rowsOf(&t), func(m scenario.Metrics) []string {
					return []string{name, d.String(), e(m.DataLossProb), f(m.Utilization)}
				}))
		}
	}
	err := o.runJobs(jobs)
	return t, err
}

// Figure11 regenerates the legacy-router coexistence experiment: TCP
// utilization against admission-controlled traffic for several eps.
func Figure11(o Options) (Table, error) {
	t := Table{
		ID:     "figure11",
		Title:  "TCP utilization vs eps at a legacy drop-tail router (20 TCP flows)",
		Header: []string{"eps", "tcp_util", "ac_util", "ac_blocking"},
		Notes:  "small eps: TCP-induced loss shuts EAC out; larger eps: roughly fair sharing",
	}
	epsList := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	if o.Quick {
		epsList = []float64{0, 0.02, 0.05}
	}
	// The TCP-coexistence points run a different simulator entry point
	// (RunTCPShare), so they fan out per point rather than per point×seed.
	err := runOrdered(o.workers(), len(epsList),
		func(_, i int) (scenario.TCPShareResult, error) {
			cfg := scenario.TCPShareConfig{
				Eps:          epsList[i],
				InterArrival: o.tau(3.5),
				LifetimeSec:  o.lifetime(),
				Duration:     o.duration() * 2,
				Seed:         1,
			}
			res, err := scenario.RunTCPShare(cfg)
			if err != nil {
				return res, fmt.Errorf("figure11 eps=%v: %w", epsList[i], err)
			}
			return res, nil
		},
		func(i int, res scenario.TCPShareResult) error {
			eps := epsList[i]
			o.logf("figure11 eps=%.2f tcp=%.3f ac=%.3f block=%.3f", eps, res.MeanTCPUtil, res.MeanACUtil, res.ACBlocking)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", eps), f(res.MeanTCPUtil), f(res.MeanACUtil), f2(res.ACBlocking),
			})
			return nil
		})
	return t, err
}
