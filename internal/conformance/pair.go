package conformance

import (
	"fmt"
	"math"
	"strings"

	"eac/internal/admission"
	"eac/internal/fluid"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Pair is one question answered twice: Ref by the reference (the serial
// plan, the packet engine, the analytic fluid model), Got by what is held
// to it (a sharded plan, the hybrid engine, the packet simulator). Both
// are seed-averaged Metrics; a side that cannot produce a field (the
// fluid model has no delay) leaves it zero.
type Pair struct {
	Name               string
	RefLabel, GotLabel string
	Ref, Got           scenario.Metrics
}

// Envelope bounds the divergence Check accepts between a Pair's two
// sides. The bounds on probability-like quantities are absolute: they
// live in [0, 1], and a relative bound on a near-zero blocking probability
// would be vacuous or impossible depending on the side. Delay uses a
// relative bound because its scale is set by the topology's propagation
// delays, which both sides share exactly. A bound of NotHeld (+Inf) is not
// checked; the zero Envelope demands equality.
//
// The numbers in the tests are calibrated, not derived: observed deltas at
// the conformance scale plus headroom, far below the gap any behavioural
// bug produces (each test states its calibration and has a case that must
// fail).
type Envelope struct {
	UtilAbs  float64 // |ref util − got util|
	LossAbs  float64 // |ref loss prob − got loss prob|
	BlockAbs float64 // |ref blocking − got blocking|
	DelayRel float64 // |ref mean delay − got| / ref mean delay
}

// NotHeld is the bound of a quantity an Envelope does not constrain.
var NotHeld = math.Inf(1)

// Check compares the two sides within the envelope. On failure the error
// carries the full side-by-side report, so the divergence is readable
// without rerunning anything.
func (p Pair) Check(e Envelope) error {
	var bad []string
	exceed := func(name string, d, bound float64) {
		if d > bound {
			bad = append(bad, fmt.Sprintf("%s differs by %.4f (bound %.4f)", name, d, bound))
		}
	}
	exceed("utilization", math.Abs(p.Ref.Utilization-p.Got.Utilization), e.UtilAbs)
	exceed("data loss", math.Abs(p.Ref.DataLossProb-p.Got.DataLossProb), e.LossAbs)
	exceed("blocking", math.Abs(p.Ref.BlockingProb-p.Got.BlockingProb), e.BlockAbs)
	if p.Ref.MeanDelaySec > 0 {
		exceed("mean delay", math.Abs(p.Ref.MeanDelaySec-p.Got.MeanDelaySec)/p.Ref.MeanDelaySec, e.DelayRel)
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s and %s disagree on %q:\n  %s\n%s",
		p.RefLabel, p.GotLabel, p.Name, strings.Join(bad, "\n  "), p.Report())
}

// Report renders the side-by-side comparison table (delta = got − ref).
func (p Pair) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s vs %s on %q:\n", p.RefLabel, p.GotLabel, p.Name)
	fmt.Fprintf(&sb, "  %-14s %10s %10s %10s\n", "metric", p.RefLabel, p.GotLabel, "delta")
	row := func(name string, ref, got float64) {
		fmt.Fprintf(&sb, "  %-14s %10.4f %10.4f %+10.4f\n", name, ref, got, got-ref)
	}
	row("utilization", p.Ref.Utilization, p.Got.Utilization)
	row("data loss", p.Ref.DataLossProb, p.Got.DataLossProb)
	row("blocking", p.Ref.BlockingProb, p.Got.BlockingProb)
	if p.Ref.MeanDelaySec > 0 {
		row("mean delay s", p.Ref.MeanDelaySec, p.Got.MeanDelaySec)
		row("p99 delay s", p.Ref.P99DelaySec, p.Got.P99DelaySec)
	}
	return sb.String()
}

// runPair runs the two configurations over the same seed set and returns,
// beside the pair, the record of the got side's first seed (what ran).
func runPair(p Pair, ref, got scenario.Config, seeds []uint64) (Pair, scenario.RunRecord, error) {
	var rec scenario.RunRecord
	rm, err := scenario.RunSeeds(ref, seeds)
	if err != nil {
		return p, rec, fmt.Errorf("%s run: %w", p.RefLabel, err)
	}
	gm, recs, err := scenario.RunSeedsObserved(got, seeds, 0)
	if err != nil {
		return p, rec, fmt.Errorf("%s run: %w", p.GotLabel, err)
	}
	if len(recs) > 0 {
		rec = recs[0]
	}
	p.Ref, p.Got = rm.Mean, gm.Mean
	return p, rec, nil
}

// ShardPair runs cfg under the serial plan and under a k-shard plan and
// returns the pair with the shard count the sharded runs executed
// (RunRecord.Shards: k clamped to the link count). A sharded run is not
// bitwise the serial run (arrival processes are thinned into per-shard
// Poisson streams with their own RNG labels) but simulates the same
// stochastic system, so the seed-averaged metrics must agree within
// sampling noise. A one-link topology runs K = 1 on both sides and compares
// the serial plan against itself; a k the model cannot run is an error.
func ShardPair(cfg scenario.Config, k int, seeds []uint64) (Pair, int, error) {
	serial, sharded := cfg, cfg
	serial.Shards, sharded.Shards = 1, k
	p, rec, err := runPair(Pair{Name: cfg.Name, RefLabel: "serial", GotLabel: "sharded"}, serial, sharded, seeds)
	p.GotLabel = fmt.Sprintf("%d-shard", rec.Shards)
	return p, rec.Shards, err
}

// HybridPair runs the packet engine and the hybrid fluid/packet engine on
// the shared config. Both sides are full scenario runs — the hybrid
// replaces only the data plane, so admission dynamics, probe quantization
// and the retry machinery are identical, and the CBR class makes the fluid
// representation of a data phase exact in rate; what remains is the
// diffusion queue approximation against the real buffer. mutate, if not
// nil, is applied to the hybrid config only: the seam through which a test
// proves its envelope can fail.
func HybridPair(cc CrossConfig, seeds []uint64, mutate func(*scenario.Config)) (Pair, error) {
	hc := cc.ScenarioConfig()
	hc.Hybrid.Enabled = true
	if mutate != nil {
		mutate(&hc)
	}
	p, _, err := runPair(Pair{Name: cc.title(), RefLabel: "packet", GotLabel: "hybrid"}, cc.ScenarioConfig(), hc, seeds)
	return p, err
}

// FluidPair solves the analytic fluid model and runs the packet simulator
// on the shared config. The fluid result has utilization, blocking and
// data loss; the other Metrics fields of Ref stay zero.
func FluidPair(cc CrossConfig, seeds []uint64) (Pair, error) {
	p := Pair{Name: cc.title(), RefLabel: "fluid", GotLabel: "simulator"}
	fr, err := fluid.Solve(cc.FluidParams())
	if err != nil {
		return p, fmt.Errorf("fluid solve: %w", err)
	}
	mm, err := scenario.RunSeeds(cc.ScenarioConfig(), seeds)
	if err != nil {
		return p, fmt.Errorf("simulator run: %w", err)
	}
	p.Ref = scenario.Metrics{Utilization: fr.Utilization, BlockingProb: fr.Blocking, DataLossProb: fr.DataLoss}
	p.Got = mm.Mean
	return p, nil
}

// CrossConfig is the shared description of an M/M-style admission setup
// that both the packet simulator and the analytic fluid model understand:
// Poisson flow arrivals, exponential lifetimes, constant-bit-rate flows on
// a single bottleneck, in-band probing at the flow rate for a fixed probe
// duration. FluidParams and ScenarioConfig derive each backend's native
// configuration from the one set of numbers, so the two can never drift
// apart silently.
type CrossConfig struct {
	Name      string
	Lambda    float64 // flow arrival rate, 1/s
	TlifeSec  float64 // mean accepted-flow lifetime, s
	TprobeSec float64 // probe duration, s
	CapBps    float64 // bottleneck capacity C, bits/s
	RateBps   float64 // per-flow (and probe) rate r, bits/s
	Eps       float64 // acceptance threshold

	// Sim-only knobs with no fluid counterpart. BufferPkts should stay
	// small: the fluid model is bufferless, and a deep buffer absorbs
	// exactly the loss the fluid model predicts.
	BufferPkts int
	Duration   sim.Time
	Warmup     sim.Time
}

// OfferedLoad returns lambda * Tlife * r / C, the offered data load as a
// fraction of capacity.
func (cc CrossConfig) OfferedLoad() float64 {
	return cc.Lambda * cc.TlifeSec * cc.RateBps / cc.CapBps
}

func (cc CrossConfig) title() string {
	return fmt.Sprintf("%s (offered load %.2f)", cc.Name, cc.OfferedLoad())
}

// FluidParams maps the shared config onto the analytic model.
func (cc CrossConfig) FluidParams() fluid.Params {
	return fluid.Params{
		Lambda: cc.Lambda, Tlife: cc.TlifeSec, Tprobe: cc.TprobeSec,
		CapBps: cc.CapBps, RateBps: cc.RateBps, Eps: cc.Eps,
	}
}

// ScenarioConfig maps the shared config onto the packet simulator: CBR
// flows (the fluid model's smooth per-flow load), a single bottleneck
// link, and the Simple prober kind (probe for the full duration, then
// judge — the fluid model's fixed probe time).
func (cc CrossConfig) ScenarioConfig() scenario.Config {
	return scenario.Config{
		Name: cc.Name,
		Classes: []scenario.ClassSpec{{
			Name: "CBR", Preset: trafgen.NewCBRPreset(cc.RateBps, 125), Weight: 1, Eps: -1,
		}},
		Links:        []scenario.LinkSpec{{RateBps: cc.CapBps, BufferPkts: cc.BufferPkts}},
		InterArrival: 1 / cc.Lambda,
		LifetimeSec:  cc.TlifeSec,
		Method:       scenario.EAC,
		AC: admission.Config{
			Design:   admission.Design{Signal: admission.Drop, Band: admission.InBand},
			Kind:     admission.Simple,
			Eps:      cc.Eps,
			ProbeDur: sim.Seconds(cc.TprobeSec),
		},
		Duration: cc.Duration,
		Warmup:   cc.Warmup,
		// Start near steady state so shortened runs are meaningful; the
		// accepted population can never usefully exceed capacity, so cap
		// the seeded load below it.
		PrepopulateUtil: min(cc.OfferedLoad(), 0.85),
	}
}
