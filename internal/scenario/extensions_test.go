package scenario

import (
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

func TestREDQueueScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := quickCfg()
	cfg.Queue = QueueRED
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization < 0.4 || m.Utilization > 1 {
		t.Fatalf("RED scenario utilization = %v", m.Utilization)
	}
	// The paper's conjecture: RED vs drop-tail should not change the
	// results much for non-adaptive admission-controlled traffic. Allow
	// a generous band but require the same ballpark.
	cfg.Queue = QueuePushout
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Utilization - base.Utilization; d > 0.15 || d < -0.15 {
		t.Fatalf("RED changed utilization drastically: %v vs %v", m.Utilization, base.Utilization)
	}
}

func TestREDRejectsOutOfBand(t *testing.T) {
	cfg := quickCfg()
	cfg.Queue = QueueRED
	cfg.AC.Design = admission.DropOutOfBand
	if _, err := Run(cfg); err == nil {
		t.Fatal("RED with out-of-band probing must be rejected")
	}
}

func TestVirtualDropDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	// Footnote 14: out-of-band virtual dropping should behave like
	// out-of-band marking (early congestion signals, low data loss)
	// without ECN bits.
	cfg := quickCfg()
	cfg.AC.Design = admission.VDropOutOfBand
	cfg.AC.Eps = 0.05
	vd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AC.Design = admission.MarkOutOfBand
	mo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AC.Design = admission.DropInBand
	cfg.AC.Eps = 0.01
	di, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vd.DataLossProb >= di.DataLossProb {
		t.Fatalf("virtual dropping loss %v should be far below in-band dropping %v",
			vd.DataLossProb, di.DataLossProb)
	}
	// Same ballpark as out-of-band marking.
	if vd.Utilization < mo.Utilization-0.15 || vd.Utilization > mo.Utilization+0.15 {
		t.Fatalf("virtual dropping utilization %v far from marking %v", vd.Utilization, mo.Utilization)
	}
}

func TestVirtualDropRequiresOutOfBand(t *testing.T) {
	cfg := quickCfg()
	cfg.AC.Design = admission.Design{Signal: admission.VDrop, Band: admission.InBand}
	if _, err := Run(cfg); err == nil {
		t.Fatal("in-band virtual dropping must be rejected (footnote 14)")
	}
}

func TestPassiveAdmission(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = Passive
	cfg.AC.Eps = 0.001
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProbeShare != 0 {
		t.Fatal("passive admission must not send probes")
	}
	if m.BlockingProb <= 0 {
		t.Fatal("passive admission blocked nothing at 110% offered load")
	}
	if m.Utilization < 0.4 {
		t.Fatalf("passive admission starved the link: %v", m.Utilization)
	}
	// The loss-threshold knob works: a permissive monitor admits more.
	cfg.AC.Eps = 0.05
	loose, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loose.BlockingProb >= m.BlockingProb {
		t.Fatalf("permissive passive threshold blocked more: %v >= %v",
			loose.BlockingProb, m.BlockingProb)
	}
}

// TestPassiveClassEps holds Passive to ClassSpec.Eps: a class's non-negative
// Eps is its loss threshold. On a loaded link the class that tolerates any
// loss is never blocked, while the class held to AC.Eps is.
func TestPassiveClassEps(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = Passive
	cfg.AC.Eps = 0.001
	cfg.Classes = []ClassSpec{
		{Name: "strict", Preset: trafgen.EXP1, Weight: 1, Eps: -1},
		{Name: "lax", Preset: trafgen.EXP1, Weight: 1, Eps: 1},
	}
	cfg.InterArrival = 0.1
	cfg.PrepopulateUtil = 0.95
	cfg.Duration = 200 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strict, lax := m.Classes[0], m.Classes[1]
	if lax.Arrived == 0 || lax.Blocked != 0 {
		t.Fatalf("lax class (Eps 1) blocked %d of %d", lax.Blocked, lax.Arrived)
	}
	if strict.Blocked == 0 {
		t.Fatalf("strict class (AC.Eps %v) blocked none of %d on a loaded link", cfg.AC.Eps, strict.Arrived)
	}
}

func TestPassiveHasNoSetupDelay(t *testing.T) {
	// Passive decisions happen at the arrival instant: with an idle link
	// every flow is admitted and starts immediately, so even a run
	// shorter than the 5 s probe duration carries data.
	cfg := quickCfg()
	cfg.Method = Passive
	cfg.InterArrival = 3.5
	cfg.Duration = 20 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.PrepopulateUtil = 0
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockingProb != 0 {
		t.Fatalf("idle-link passive blocking = %v", m.BlockingProb)
	}
	if m.Utilization == 0 {
		t.Fatal("no data despite instant admission")
	}
}

func TestRetryBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := quickCfg()
	cfg.MaxRetries = 3
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retries == 0 {
		t.Fatal("no retries at 110% offered load")
	}
	// Retrying lowers final flow blocking relative to single-shot.
	cfg2 := cfg
	cfg2.MaxRetries = 0
	single, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if single.Retries != 0 {
		t.Fatal("retries recorded with MaxRetries=0")
	}
	if m.BlockingProb >= single.BlockingProb {
		t.Fatalf("retries did not lower final blocking: %v >= %v",
			m.BlockingProb, single.BlockingProb)
	}
}

func TestLossMonitorWindow(t *testing.T) {
	lm := newLossMonitor(1.0)
	// 50 arrivals, 5 drops in the first second.
	for i := 0; i < 50; i++ {
		lm.onArrive(sim.Time(i) * 20 * sim.Millisecond)
	}
	for i := 0; i < 5; i++ {
		lm.onDrop(sim.Time(i) * 100 * sim.Millisecond)
	}
	got := lm.Estimate(sim.Second)
	if got < 0.08 || got > 0.12 {
		t.Fatalf("estimate = %v, want ~0.1", got)
	}
	// After a silent window, the history expires.
	if got := lm.Estimate(3 * sim.Second); got != 0 {
		t.Fatalf("estimate after window = %v, want 0", got)
	}
}

func TestDelayMetricsSmallQueueingDelay(t *testing.T) {
	// Section 1: "the queueing delays are likely to be quite small" —
	// with a 200-packet buffer at 10 Mb/s (0.1 ms per packet) the worst
	// queueing delay is ~20 ms on top of the 20 ms propagation.
	cfg := quickCfg()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prop := 0.020
	if m.MeanDelaySec < prop || m.MeanDelaySec > prop+0.020 {
		t.Fatalf("mean delay %.4fs outside [prop, prop+max queueing]", m.MeanDelaySec)
	}
	if m.P99DelaySec < m.MeanDelaySec {
		t.Fatalf("p99 %.4fs below mean %.4fs", m.P99DelaySec, m.MeanDelaySec)
	}
	if m.P99DelaySec > prop+0.025 {
		t.Fatalf("p99 delay %.4fs exceeds the buffer bound", m.P99DelaySec)
	}
}

func TestDelayScalesWithHops(t *testing.T) {
	cfg := quickCfg()
	cfg.Links = []LinkSpec{{}, {}, {}}
	cfg.Classes[0].Path = []int{0, 1, 2}
	cfg.InterArrival = 0.5
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three hops: at least 60 ms propagation.
	if m.MeanDelaySec < 0.060 {
		t.Fatalf("3-hop mean delay %.4fs below propagation floor", m.MeanDelaySec)
	}
}
