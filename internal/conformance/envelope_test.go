package conformance

import (
	"reflect"
	"testing"

	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// figure2Cfg is the basic paper scenario of figure 2 (EXP1 sources, one
// congested link, slow-start in-band drop probing) at conformance scale.
func figure2Cfg() scenario.Config {
	return scenario.Config{
		Name:         "figure2-envelope",
		Classes:      []scenario.ClassSpec{{Name: "EXP1", Preset: trafgen.EXP1, Weight: 1, Eps: -1}},
		InterArrival: 3.5,
		Method:       scenario.EAC,
		AC: admission.Config{
			Design: admission.Design{Signal: admission.Drop, Band: admission.InBand},
			Kind:   admission.SlowStart,
			Eps:    0.01,
		},
		Duration:        400 * sim.Second,
		Warmup:          100 * sim.Second,
		PrepopulateUtil: 0.75,
	}
}

// congestedCfg is the congested multi-hop backbone of tables 5/6 (three
// congested links, one long class plus a cross class per link) at
// conformance scale — the simplest golden scenario with genuine
// cross-shard traffic.
func congestedCfg() scenario.Config {
	cfg := figure2Cfg()
	cfg.Name = "congested-multihop-envelope"
	cfg.InterArrival = 1.6
	cfg.Links = []scenario.LinkSpec{{}, {}, {}}
	cfg.Classes = []scenario.ClassSpec{
		{Name: "long", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: []int{0, 1, 2}},
		{Name: "short-1", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: []int{0}},
		{Name: "short-2", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: []int{1}},
		{Name: "short-3", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: []int{2}},
	}
	return cfg
}

// envelopeSeeds is deliberately larger than the golden suite's single
// seed: the compared quantity is a seed-averaged mean, and per-seed
// utilization of the congested backbone swings by ±0.15 in a 300 s
// accounting window under either plan. Six seeds bring the plan deltas
// an order of magnitude below the per-seed noise.
var envelopeSeeds = []uint64{1, 2, 3, 4, 5, 6}

// TestShardEnvelopeFigure2: the figure-2 topology has a single link, so
// any shard request clamps to the serial plan — the envelope holds
// trivially and, stronger, the two plans must be bitwise identical.
// This is the guarantee that keeps the figure goldens byte-exact: no
// golden scenario with a single bottleneck can ever be perturbed by the
// sharding layer.
func TestShardEnvelopeFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope comparison runs full scenarios")
	}
	cfg := figure2Cfg()
	// Three seeds suffice: the claim is bitwise equality, not a
	// statistical one.
	r, shards, err := ShardPair(cfg, 8, envelopeSeeds[:3])
	if err != nil {
		t.Fatal(err)
	}
	if shards != 1 {
		t.Fatalf("single-link scenario resolved to %d shards, want 1", shards)
	}
	if !reflect.DeepEqual(r.Ref, r.Got) {
		t.Errorf("clamped plan must be bitwise identical to serial:\n%s", r.Report())
	}
	if err := r.Check(Envelope{}); err != nil { // zero envelope: exact
		t.Error(err)
	}
}

// TestShardEnvelopeCongestedMultihop compares the serial and 3-shard
// plans on the congested backbone. The bounds are calibrated, not
// derived (same policy as the cross-validation envelopes): over seeds
// {1..6} at this scale the observed seed-mean deltas are ≈0.005
// utilization, ≈1e-4 loss, ≈0.009 blocking and ≈1.6% mean delay
// (per-seed deltas carry both signs — see the per-seed sweep in this
// test's history). The bounds leave 4-8x headroom over those means,
// which is still far below what any causality or accounting bug
// produces: a lost or duplicated cross-shard hand-off moves loss and
// utilization by tens of percent (see TestEnvelopeCatchesDivergence).
func TestShardEnvelopeCongestedMultihop(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope comparison runs full scenarios")
	}
	cfg := congestedCfg()
	r, shards, err := ShardPair(cfg, 3, envelopeSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 3 {
		t.Fatalf("resolved to %d shards, want 3", shards)
	}
	env := Envelope{UtilAbs: 0.04, LossAbs: 2e-3, BlockAbs: 0.04, DelayRel: 0.08}
	if err := r.Check(env); err != nil {
		t.Error(err)
	}
	t.Log("\n" + r.Report())
}

// TestShardEnvelopeNonstationary repeats the congested-backbone envelope
// under a spike schedule: the shards thin their per-shard arrival streams
// against one absolute phase clock, so the aggregate modulated process
// must stay statistically equivalent to the serial one through the
// transient. A per-shard clock bug (e.g. phase measured from the shard's
// first arrival) concentrates or misses the spike per shard and shows up
// as a blocking/loss gap far beyond these bounds. Bounds match the
// stationary congested test with headroom for the transient's extra
// variance (observed seed-mean deltas over seeds {1..6}: ≈0.007
// utilization, ≈1e-3 loss, ≈0.013 blocking, ≈0.3% mean delay).
func TestShardEnvelopeNonstationary(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope comparison runs full scenarios")
	}
	cfg := congestedCfg()
	cfg.Name = "congested-spike-envelope"
	cfg.Schedule = scenario.Schedule{Phases: []scenario.Phase{
		{Kind: scenario.PhaseConst, DurationSec: 150, From: 1, To: 1},
		{Kind: scenario.PhaseConst, DurationSec: 60, From: 3, To: 3},
		{Kind: scenario.PhaseConst, DurationSec: 200, From: 1, To: 1},
	}, Hold: true}
	r, shards, err := ShardPair(cfg, 3, envelopeSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 3 {
		t.Fatalf("resolved to %d shards, want 3", shards)
	}
	env := Envelope{UtilAbs: 0.05, LossAbs: 3e-3, BlockAbs: 0.05, DelayRel: 0.10}
	if err := r.Check(env); err != nil {
		t.Error(err)
	}
	t.Log("\n" + r.Report())
}

// TestEnvelopeCatchesDivergence: the envelope must reject a genuinely
// different system, not just pass everything. Comparing the congested
// scenario against a variant with twice the offered load exceeds every
// bound and renders a readable report.
func TestEnvelopeCatchesDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope comparison runs full scenarios")
	}
	cfg := congestedCfg()
	heavier := cfg
	heavier.InterArrival = cfg.InterArrival / 2
	// Three seeds suffice: doubling the load moves every metric far
	// beyond the bounds, not marginally.
	sm, err := scenario.RunSeeds(cfg, envelopeSeeds[:3])
	if err != nil {
		t.Fatal(err)
	}
	pm, err := scenario.RunSeeds(heavier, envelopeSeeds[:3])
	if err != nil {
		t.Fatal(err)
	}
	r := Pair{Name: cfg.Name, RefLabel: "offered", GotLabel: "doubled", Ref: sm.Mean, Got: pm.Mean}
	env := Envelope{UtilAbs: 0.04, LossAbs: 2e-3, BlockAbs: 0.04, DelayRel: 0.08}
	if err := r.Check(env); err == nil {
		t.Fatalf("envelope failed to reject a doubled offered load:\n%s", r.Report())
	}
}
