package scenario

import (
	"reflect"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// TestStaticPolicyByteIdentity pins the tentpole contract: a config that
// names the static policy explicitly resolves, fingerprints, and runs
// byte-identically to the zero-value (pre-policy-layer) config.
func TestStaticPolicyByteIdentity(t *testing.T) {
	zero := quickCfg()
	named := quickCfg()
	named.Policy = admission.PolicyConfig{Kind: admission.PolicyStatic}
	if zero.WithDefaults().Fingerprint() != named.WithDefaults().Fingerprint() {
		t.Fatal("explicit static policy changed the config fingerprint")
	}
	a, err := Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(named)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explicit static policy diverged from the zero config:\n%+v\n%+v", a, b)
	}
}

// TestNeverAdmitAdmitsNothing pins the NeverAdmit edge: every arrival is
// decided (rejected) without probing, so zero flows and zero probe
// traffic enter the network.
func TestNeverAdmitAdmitsNothing(t *testing.T) {
	cfg := quickCfg()
	cfg.Policy = admission.PolicyConfig{Kind: admission.PolicyNeverAdmit}
	cfg.PrepopulateUtil = 0
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided < 100 {
		t.Fatalf("only %d decisions; arrivals must still be decided", m.Decided)
	}
	if m.BlockingProb != 1 {
		t.Fatalf("blocking = %v, want 1 under NeverAdmit", m.BlockingProb)
	}
	if m.Utilization != 0 || m.ProbeShare != 0 {
		t.Fatalf("NeverAdmit leaked traffic: util=%v probes=%v", m.Utilization, m.ProbeShare)
	}
}

// TestPolicySpectrum orders the non-probing policies: AlwaysAdmit blocks
// nothing and pushes the link into overload loss; a starved token bucket
// blocks most arrivals and keeps the link clean.
func TestPolicySpectrum(t *testing.T) {
	run := func(pc admission.PolicyConfig) Metrics {
		cfg := quickCfg()
		cfg.Policy = pc
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	always := run(admission.PolicyConfig{Kind: admission.PolicyAlwaysAdmit})
	bucket := run(admission.PolicyConfig{
		Kind: admission.PolicyTokenBucket, BucketCap: 2, BucketRate: 0.5})
	if always.BlockingProb != 0 {
		t.Fatalf("AlwaysAdmit blocked %v of flows", always.BlockingProb)
	}
	if always.ProbeShare != 0 || bucket.ProbeShare != 0 {
		t.Fatalf("non-probing policies sent probes: %v, %v", always.ProbeShare, bucket.ProbeShare)
	}
	if bucket.BlockingProb <= 0 || bucket.BlockingProb >= 1 {
		t.Fatalf("starved bucket blocking = %v, want partial", bucket.BlockingProb)
	}
	if always.DataLossProb <= bucket.DataLossProb {
		t.Fatalf("overloaded link (%v) should lose more than rate-limited (%v)",
			always.DataLossProb, bucket.DataLossProb)
	}
	if always.Utilization <= bucket.Utilization {
		t.Fatalf("AlwaysAdmit util %v <= token-bucket util %v", always.Utilization, bucket.Utilization)
	}
}

// extendForever is an injected test policy that always probes and judges
// every probe "extend" — the pathological client of the extension seam.
type extendForever struct {
	admission.StaticEpsilon
	probes map[int]int // probes started per flow ID
}

func (p *extendForever) Name() string { return "extend-forever" }
func (p *extendForever) Decide(req admission.Request) admission.Decision {
	p.probes[req.FlowID]++
	return admission.Decision{Action: admission.ActionProbe, Eps: req.BaseEps}
}
func (p *extendForever) Judge(now sim.Time, o admission.Observation) admission.Outcome {
	return admission.OutcomeExtend
}

// TestExtendCapBoundsReprobing pins the OutcomeExtend contract: an
// extension re-probes immediately without consuming a retry, and the
// per-attempt cap stops a policy from extending forever. With MaxRetries
// 0 every flow runs exactly 1 + maxProbeExtends probes, then is rejected.
func TestExtendCapBoundsReprobing(t *testing.T) {
	cfg := quickCfg().WithDefaults()
	cfg.PrepopulateUtil = 0
	cfg.Duration = 60 * sim.Second
	cfg.Warmup = 10 * sim.Second
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := &extendForever{probes: map[int]int{}}
	r.doms[0].policy = pol
	m := r.Run()
	if m.Decided == 0 {
		t.Fatal("no admission decisions")
	}
	if m.BlockingProb != 1 {
		t.Fatalf("endlessly-extended flows must end rejected, blocking = %v", m.BlockingProb)
	}
	// No flow may exceed the cap, and settled flows hit it exactly (only
	// flows whose probe the horizon cut short stop early).
	capped := 0
	for id, n := range pol.probes {
		if n > 1+maxProbeExtends {
			t.Fatalf("flow %d ran %d probes, cap is %d", id, n, 1+maxProbeExtends)
		}
		if n == 1+maxProbeExtends {
			capped++
		}
	}
	if capped < int(m.Decided) {
		t.Fatalf("%d flows hit the extension cap, want at least the %d decided",
			capped, m.Decided)
	}
}

// TestEpochAdaptiveShardRaceSmoke runs the adaptive policy on the sharded
// path; `go test -race` makes it a data-race smoke test of the per-shard
// policy instances (CI runs it so). It also checks shard determinism.
func TestEpochAdaptiveShardRaceSmoke(t *testing.T) {
	cfg := shardChainConfig(4)
	cfg.Duration = 12 * sim.Second
	cfg.Warmup = 3 * sim.Second
	cfg.Shards = 4
	cfg.AC = admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.02}
	cfg.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, Epoch: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded adaptive run is nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.Decided == 0 {
		t.Fatal("no admission decisions on the sharded path")
	}
}

// onOffCfg is the nonstationary scenario of the pinned adaptation test:
// EXP1 on the basic single link, arrivals doubled for half of each period
// and silent otherwise, with a deliberately loose static ε — the
// thrashing regime where a fixed threshold over-admits every burst.
func onOffCfg(seed uint64) Config {
	return Config{
		Classes:      []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
		InterArrival: 0.35,
		LifetimeSec:  30,
		Method:       EAC,
		AC:           admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.05},
		Schedule:     squareWave(20, 2, 20, 0),
		Duration:     600 * sim.Second,
		Warmup:       60 * sim.Second,
		Seed:         seed,
	}
}

// TestEpochAdaptiveBeatsStaticUnderOnOffLoad is the pinned acceptance
// comparison: under on/off load modulation the epoch-adaptive policy must
// deliver strictly lower post-admission loss than the static threshold it
// starts from, at comparable mean blocking — the quantified claim behind
// the policy_thrash experiment.
func TestEpochAdaptiveBeatsStaticUnderOnOffLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation")
	}
	seeds := []uint64{1, 2, 3}
	run := func(pc admission.PolicyConfig) Metrics {
		var agg []Metrics
		for _, s := range seeds {
			cfg := onOffCfg(s)
			cfg.Policy = pc
			m, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg = append(agg, m)
		}
		return Aggregate(agg).Mean
	}
	static := run(admission.PolicyConfig{Kind: admission.PolicyStatic})
	adaptive := run(admission.PolicyConfig{
		Kind:       admission.PolicyEpochAdaptive,
		Epoch:      20,
		TargetLoss: 0.005,
	})
	t.Logf("static:   loss=%.3e blocking=%.3f util=%.3f", static.DataLossProb, static.BlockingProb, static.Utilization)
	t.Logf("adaptive: loss=%.3e blocking=%.3f util=%.3f", adaptive.DataLossProb, adaptive.BlockingProb, adaptive.Utilization)
	if adaptive.DataLossProb >= static.DataLossProb {
		t.Fatalf("adaptive loss %.3e not strictly below static %.3e",
			adaptive.DataLossProb, static.DataLossProb)
	}
	// "Comparable blocking": the adaptive policy must not buy its loss
	// advantage by blocking wholesale — allow it at most a modest
	// absolute increase over static.
	if adaptive.BlockingProb > static.BlockingProb+0.10 {
		t.Fatalf("adaptive blocking %.3f exceeds static %.3f by more than 0.10",
			adaptive.BlockingProb, static.BlockingProb)
	}
}
