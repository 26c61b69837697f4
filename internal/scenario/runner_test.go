package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// quickCfg returns a config scaled for fast tests: short lifetimes keep
// flow turnover high so steady state is reached in tens of seconds.
func quickCfg() Config {
	return Config{
		Classes:      []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
		InterArrival: 0.35, // x10 arrival rate ...
		LifetimeSec:  30,   // ... with x10 shorter lives: same offered load
		Method:       EAC,
		AC:           admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.01},
		Duration:     300 * sim.Second,
		Warmup:       60 * sim.Second,
		Seed:         1,
	}
}

func TestRunBasicScenario(t *testing.T) {
	m, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization < 0.5 || m.Utilization > 1.0 {
		t.Fatalf("utilization = %v, want a loaded but feasible link", m.Utilization)
	}
	if m.BlockingProb <= 0 || m.BlockingProb >= 1 {
		t.Fatalf("blocking = %v at 110%% offered load", m.BlockingProb)
	}
	if m.DataLossProb < 0 || m.DataLossProb > 0.05 {
		t.Fatalf("loss = %v, want small but possibly nonzero", m.DataLossProb)
	}
	if m.Decided < 100 {
		t.Fatalf("only %d decisions in the window", m.Decided)
	}
	if m.ProbeShare <= 0 {
		t.Fatal("no probe traffic recorded")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utilization != b.Utilization || a.DataLossProb != b.DataLossProb ||
		a.BlockingProb != b.BlockingProb || a.Decided != b.Decided {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	cfg := quickCfg()
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Decided == b.Decided && a.Utilization == b.Utilization {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestNoAdmissionOverloads(t *testing.T) {
	cfg := quickCfg()
	cfg.Policy = admission.PolicyConfig{Kind: admission.PolicyAlwaysAdmit}
	mAll, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = admission.PolicyConfig{}
	mEAC, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mAll.BlockingProb != 0 {
		t.Fatal("the always-admit policy blocked flows")
	}
	if mAll.DataLossProb <= mEAC.DataLossProb {
		t.Fatalf("admission control should reduce loss: always-admit=%v static=%v",
			mAll.DataLossProb, mEAC.DataLossProb)
	}
}

func TestMBACControlsLoss(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = MBAC
	cfg.MS.Target = 0.9
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockingProb <= 0 {
		t.Fatal("MBAC blocked nothing at 110% offered load")
	}
	if m.DataLossProb > 5e-3 {
		t.Fatalf("MBAC loss = %v at target 0.9", m.DataLossProb)
	}
	if m.ProbeShare != 0 {
		t.Fatal("MBAC does not probe")
	}
}

func TestMBACTargetSweepMonotone(t *testing.T) {
	var lastUtil float64
	for _, u := range []float64{0.7, 0.9, 1.1} {
		cfg := quickCfg()
		cfg.Method = MBAC
		cfg.MS.Target = u
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Utilization+0.03 < lastUtil {
			t.Fatalf("utilization fell as the MBAC target rose: %v -> %v at u=%v",
				lastUtil, m.Utilization, u)
		}
		lastUtil = m.Utilization
	}
}

func TestEpsilonSweepRaisesUtilizationAndLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(eps float64) Metrics {
		cfg := quickCfg()
		cfg.AC.Eps = eps
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	strict := run(0)
	loose := run(0.05)
	if loose.Utilization <= strict.Utilization {
		t.Fatalf("eps=0.05 utilization %v <= eps=0 %v", loose.Utilization, strict.Utilization)
	}
	if loose.BlockingProb >= strict.BlockingProb {
		t.Fatalf("eps=0.05 blocking %v >= eps=0 %v", loose.BlockingProb, strict.BlockingProb)
	}
}

func TestOutOfBandProtectsData(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(d admission.Design) Metrics {
		cfg := quickCfg()
		cfg.AC.Design = d
		cfg.AC.Eps = 0.01
		if d.Signal == admission.Mark {
			cfg.AC.Eps = 0.05
		}
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	inband := run(admission.DropInBand)
	outband := run(admission.DropOutOfBand)
	if outband.DataLossProb >= inband.DataLossProb {
		t.Fatalf("out-of-band loss %v >= in-band %v", outband.DataLossProb, inband.DataLossProb)
	}
}

func TestMarkingReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(d admission.Design, eps float64) Metrics {
		cfg := quickCfg()
		cfg.AC.Design = d
		cfg.AC.Eps = eps
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	drop := run(admission.DropInBand, 0.01)
	mark := run(admission.MarkInBand, 0.01)
	if mark.DataLossProb >= drop.DataLossProb {
		t.Fatalf("marking loss %v >= dropping %v", mark.DataLossProb, drop.DataLossProb)
	}
}

func TestHeterogeneousThresholdsBlocking(t *testing.T) {
	// Table 3: the stricter class suffers higher blocking than the
	// looser one sharing the link.
	cfg := quickCfg()
	cfg.Classes = []ClassSpec{
		{Name: "strict", Preset: trafgen.EXP1, Weight: 1, Eps: 0},
		{Name: "loose", Preset: trafgen.EXP1, Weight: 1, Eps: 0.05},
	}
	cfg.Duration = 600 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strict, loose := m.Classes[0], m.Classes[1]
	if strict.Arrived < 100 || loose.Arrived < 100 {
		t.Fatalf("thin classes: %+v %+v", strict, loose)
	}
	if strict.BlockingProb() <= loose.BlockingProb() {
		t.Fatalf("strict class blocking %v <= loose %v",
			strict.BlockingProb(), loose.BlockingProb())
	}
}

func TestMultiHopLongFlowsBlockedMore(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	// Tables 5-6: flows crossing three congested links block more than
	// single-hop cross traffic.
	cfg := quickCfg()
	cfg.Links = []LinkSpec{{}, {}, {}}
	cfg.Classes = []ClassSpec{
		{Name: "long", Preset: trafgen.EXP1, Weight: 1, Path: []int{0, 1, 2}},
		{Name: "cross0", Preset: trafgen.EXP1, Weight: 1, Path: []int{0}},
		{Name: "cross1", Preset: trafgen.EXP1, Weight: 1, Path: []int{1}},
		{Name: "cross2", Preset: trafgen.EXP1, Weight: 1, Path: []int{2}},
	}
	cfg.InterArrival = 0.2
	cfg.Duration = 600 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := m.Classes[0]
	crossBlock := (m.Classes[1].BlockingProb() + m.Classes[2].BlockingProb() + m.Classes[3].BlockingProb()) / 3
	if long.Arrived < 50 {
		t.Fatalf("too few long flows: %+v", long)
	}
	if long.BlockingProb() <= crossBlock {
		t.Fatalf("long blocking %v <= cross blocking %v", long.BlockingProb(), crossBlock)
	}
}

func TestPrepopulateSpeedsWarmup(t *testing.T) {
	cfg := quickCfg()
	cfg.LifetimeSec = 300 // slow dynamics: ramp-up takes ~900 s
	cfg.InterArrival = 3.5
	cfg.Duration = 200 * sim.Second
	cfg.Warmup = 50 * sim.Second
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PrepopulateUtil = 0.8
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Utilization < cold.Utilization+0.2 {
		t.Fatalf("prepopulation had no effect: cold=%v warm=%v",
			cold.Utilization, warm.Utilization)
	}
}

func TestValidation(t *testing.T) {
	bad := quickCfg()
	bad.Classes[0].Path = []int{5}
	if _, err := Run(bad); err == nil {
		t.Fatal("out-of-range path accepted")
	}
	bad = quickCfg()
	bad.Warmup = 400 * sim.Second // >= duration
	if _, err := Run(bad); err == nil {
		t.Fatal("warmup >= duration accepted")
	}
	bad = quickCfg()
	bad.Classes[0].Weight = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestValidateNamesField: a value the defaults do not fill (they fill
// zeros) and the model cannot run is an error naming the field — not a
// panic in netsim or mbac, and not a run that quietly ignores it.
func TestValidateNamesField(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Links[0].RateBps", func(c *Config) { c.Links = []LinkSpec{{RateBps: -1}} }},
		{"Links[0].RateBps", func(c *Config) { c.Links = []LinkSpec{{RateBps: math.NaN()}} }},
		{"Links[0].RateBps", func(c *Config) { c.Links = []LinkSpec{{RateBps: math.Inf(1)}} }},
		{"Links[1].BufferPkts", func(c *Config) { c.Links = []LinkSpec{{}, {BufferPkts: -5}} }},
		{"Links[0].Delay", func(c *Config) { c.Links = []LinkSpec{{Delay: -sim.Millisecond}} }},
		{"MS.Target", func(c *Config) { c.Method, c.MS.Target = MBAC, -1 }},
		{"Method", func(c *Config) { c.Method = Passive + 1 }},
		{"AC.ProbeDur", func(c *Config) { c.AC.ProbeDur = -sim.Second }},
		{"AC.StageDur", func(c *Config) { c.AC.StageDur = -sim.Second }},
		{"AC.Guard", func(c *Config) { c.AC.Guard = -1 }},
		{"InterArrival", func(c *Config) { c.InterArrival = math.NaN() }},
		{"InterArrival", func(c *Config) { c.InterArrival = math.Inf(1) }},
		{"LifetimeSec", func(c *Config) { c.LifetimeSec = math.NaN() }},
		{"LifetimeSec", func(c *Config) { c.LifetimeSec = math.Inf(1) }},
		{"PrepopulateUtil", func(c *Config) { c.PrepopulateUtil = math.NaN() }},
		{"PrepopulateUtil", func(c *Config) { c.PrepopulateUtil = 1e9 }}, // ~7.8e10 flows
		{"AC.Eps", func(c *Config) { c.AC.Eps = math.NaN() }},
		{"AC.Eps", func(c *Config) { c.AC.Eps = math.Inf(-1) }},
		{"AC.Eps", func(c *Config) { c.AC.Eps = -1 }},
		{"VQFactor", func(c *Config) { c.AC.Design, c.VQFactor = admission.MarkInBand, -1 }},
		{"VQFactor", func(c *Config) { c.AC.Design, c.VQFactor = admission.MarkInBand, math.NaN() }},
		{"VQFactor", func(c *Config) { c.AC.Design, c.VQFactor = admission.MarkInBand, math.Inf(1) }},
		{"Classes[0].Weight", func(c *Config) { c.Classes[0].Weight = math.NaN() }},
		{"Classes[0].Weight", func(c *Config) { c.Classes[0].Weight = math.Inf(1) }},
		{"Classes[0].Weight", func(c *Config) { c.Classes[0].Weight = -1 }},
		{"Classes[0].Eps", func(c *Config) { c.Classes[0].Eps = math.NaN() }},
		{"Classes[0].Eps", func(c *Config) { c.Classes[0].Eps = math.Inf(1) }},
		{"Duration", func(c *Config) { c.Duration = -5 * sim.Second }},
		{"Warmup", func(c *Config) { c.Warmup = -10 * sim.Second }},
		{"Drain", func(c *Config) { c.Drain = -sim.Second }},
		{"Obs.MetricsInterval", func(c *Config) { c.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), MetricsInterval: -sim.Second} }},
		{"Obs.TraceCapacity", func(c *Config) { c.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), TraceCapacity: -1} }},
		// The ring is allocated whole before the run: Validate refuses first.
		{"Obs.TraceCapacity", func(c *Config) {
			c.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), TraceCapacity: obs.MaxTraceCapacity + 1}
		}},
		// An export asked for with no ring to fill it was silently not written.
		{"Obs.Perfetto", func(c *Config) { c.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), Perfetto: true} }},
		{"Obs.Enabled", func(c *Config) {
			c.Links, c.Shards, c.Obs = []LinkSpec{{}, {}}, 2, obs.Config{Enabled: true, Dir: t.TempDir()}
		}},
		{"MaxRetries", func(c *Config) { c.MaxRetries = -1 }},
		{"InterArrival", func(c *Config) { c.InterArrival = -1 }},
		{"LifetimeSec", func(c *Config) { c.LifetimeSec = -30 }},
		{"Classes[1].TCPFlows", func(c *Config) { c.Classes = append(c.Classes, ClassSpec{TCPFlows: -1}) }},
		{"Classes[1].TCPFlows", func(c *Config) { c.Classes = append(c.Classes, ClassSpec{TCPFlows: 5, Weight: 1}) }},
		{"Classes[1].TCPFlows", func(c *Config) { c.Classes, c.Hybrid.Enabled = append(c.Classes, ClassSpec{TCPFlows: 5}), true }},
		{"Classes[1].TCPFlows", func(c *Config) {
			c.Classes, c.Links, c.Shards = append(c.Classes, ClassSpec{TCPFlows: 5}), []LinkSpec{{}, {}}, 2
		}},
		// What netsim.Packet's narrow fields cannot hold. A 1 ns stage would
		// carve 5·10⁹ probe stages; Validate must refuse before any is made.
		{"Classes[0].Preset.PktSize", func(c *Config) { c.Classes[0].Preset.PktSize = math.MaxInt32 + 1 }},
		// An admitted class needs a preset it can send: zero sizes and rates
		// used to panic in trafgen or run on a negative rate.
		{"Classes[0].Preset.PktSize", func(c *Config) { c.Classes[0].Preset.PktSize = 0 }},
		{"Classes[0].Preset.PktSize", func(c *Config) { c.Classes[0].Preset.PktSize = -125 }},
		{"Classes[0].Preset.TokenRate", func(c *Config) { c.Classes[0].Preset.TokenRate = 0 }},
		{"Classes[0].Preset.TokenRate", func(c *Config) { c.Classes[0].Preset.TokenRate = math.NaN() }},
		{"Classes[0].Preset.AvgRate", func(c *Config) { c.Classes[0].Preset.AvgRate = 0 }},
		{"Classes[0].Preset.AvgRate", func(c *Config) { c.Classes[0].Preset.AvgRate = -1 }},
		{"Classes[0].Preset.AvgRate", func(c *Config) { c.Classes[0].Preset.AvgRate = math.Inf(1) }},
		{"Classes[1].Preset.PktSize", func(c *Config) { c.Classes = append(c.Classes, ClassSpec{Weight: 1}) }},
		{"Classes[0].Path", func(c *Config) { c.Classes[0].Path = make([]int, math.MaxUint16/2+1) }},
		{"AC.ProbeDur/AC.StageDur", func(c *Config) { c.AC.StageDur = sim.Nanosecond }},
		{"AC.ProbeDur/AC.StageDur", func(c *Config) { c.AC.Kind, c.AC.ProbeDur = admission.EarlyReject, 70000*sim.Second }},
		// A preset filled in field by field has no source to build: the run
		// panicked at the first flow.
		{"Classes[0].Preset", func(c *Config) {
			c.Classes[0].Preset = trafgen.Preset{Name: "EXP1", TokenRate: 256e3, BucketBytes: 125, PktSize: 125, AvgRate: 128e3}
		}},
		// Event rates no run can finish: 10¹² arrivals a second, directly or
		// at a schedule's peak, and a packet every nanosecond.
		{"InterArrival", func(c *Config) { c.InterArrival = 1e-12 }},
		{"InterArrival", func(c *Config) {
			c.Schedule = Schedule{Phases: []Phase{{Kind: PhaseConst, DurationSec: 10, From: 1e6, To: 1e6}}}
		}},
		{"Classes[0].Preset.TokenRate", func(c *Config) { c.Classes[0].Preset.TokenRate = 1e12 }},
	} {
		c := quickCfg()
		tc.mutate(&c)
		// The message leads with the field: one naming another field first
		// does not pass a row.
		if _, err := Run(c); err == nil || !strings.HasPrefix(err.Error(), "scenario: "+tc.field+" ") {
			t.Errorf("%s: err = %v, want one naming %s", tc.field, err, tc.field)
		}
	}
}

// TestAggregateCountsExact: Decided and Retries are counts, summed over
// the runs exactly. Rebuilding them as mean × n fell one short of the sum
// for about one aggregate of 2–10 runs in twenty (1, 1, 5 gave 6).
func TestAggregateCountsExact(t *testing.T) {
	for _, counts := range [][]int64{{1, 1, 5}, {3, 3, 3, 3, 3, 3, 7}, {9, 1}} {
		runs := make([]Metrics, len(counts))
		var sum int64
		for i, n := range counts {
			runs[i].Decided, runs[i].Retries = n, 2*n
			sum += n
		}
		if m := Aggregate(runs).Mean; m.Decided != sum || m.Retries != 2*sum {
			t.Errorf("%v: Decided %d, Retries %d, want %d and %d", counts, m.Decided, m.Retries, sum, 2*sum)
		}
	}
}

func TestRunSeedsAggregation(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 150 * sim.Second
	mm, _, err := RunSeedsObserved(cfg, DefaultSeeds(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Runs) != 3 {
		t.Fatalf("runs = %d", len(mm.Runs))
	}
	if mm.Mean.Utilization <= 0 {
		t.Fatal("mean utilization zero")
	}
	if mm.UtilStderr < 0 {
		t.Fatal("negative stderr")
	}
	// Mean must lie within the runs' range.
	lo, hi := 2.0, -1.0
	for _, r := range mm.Runs {
		if r.Utilization < lo {
			lo = r.Utilization
		}
		if r.Utilization > hi {
			hi = r.Utilization
		}
	}
	if mm.Mean.Utilization < lo || mm.Mean.Utilization > hi {
		t.Fatalf("mean %v outside [%v,%v]", mm.Mean.Utilization, lo, hi)
	}
}

func TestClassMetricsAccessors(t *testing.T) {
	cm := ClassMetrics{Arrived: 10, Blocked: 3, DataSent: 100, DataLost: 5}
	if cm.BlockingProb() != 0.3 || cm.LossProb() != 0.05 {
		t.Fatalf("accessors: %v %v", cm.BlockingProb(), cm.LossProb())
	}
	var empty ClassMetrics
	if empty.BlockingProb() != 0 || empty.LossProb() != 0 {
		t.Fatal("zero-value accessors should be 0")
	}
}

func TestPacketConservation(t *testing.T) {
	// Every allocated packet is either in the pool, in flight, or queued
	// when the run ends; a steady-state run must not grow allocations
	// without bound.
	r, err := NewRunner(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if r.doms[0].pool.Allocated > 3000 {
		t.Fatalf("allocated %d packets; pooling is not reusing them", r.doms[0].pool.Allocated)
	}
}

func TestMethodAndQueueStrings(t *testing.T) {
	for m, want := range map[Method]string{EAC: "EAC", MBAC: "MBAC", Passive: "passive"} {
		if m.String() != want {
			t.Fatalf("Method(%d).String() = %q", m, m.String())
		}
	}
}

func TestMetricsSummaryFormat(t *testing.T) {
	m := Metrics{Utilization: 0.5, DataLossProb: 1e-3, BlockingProb: 0.25, ProbeShare: 0.01}
	s := m.Summary()
	for _, frag := range []string{"util=0.500", "loss=1.00e-03", "blocking=0.250"} {
		if !contains(s, frag) {
			t.Fatalf("summary %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPerLinkMetricsPopulated(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 150 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Links) != 1 {
		t.Fatalf("links = %d", len(m.Links))
	}
	lm := m.Links[0]
	if lm.Utilization <= 0 || lm.Utilization != m.Utilization {
		t.Fatalf("link metrics inconsistent: %+v vs %v", lm, m.Utilization)
	}
	if lm.ProbeShare <= 0 {
		t.Fatal("no probe share on link 0")
	}
}

// TestRunSeedsParallelDeterminism proves the hard requirement of the
// parallel engine: the aggregate over seeds is bitwise-identical for any
// worker count, because each run owns its Sim and RNG streams and
// aggregation preserves seed order. Kept fast (short sims) so it also
// exercises the goroutine pool under -short -race.
func TestRunSeedsParallelDeterminism(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 40 * sim.Second
	cfg.Warmup = 10 * sim.Second
	cfg.PrepopulateUtil = 0.5
	seeds := DefaultSeeds(5)

	seq, _, err := RunSeedsObserved(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, _, err := RunSeedsObserved(cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel aggregate differs from sequential\nseq: %+v\npar: %+v",
				workers, seq.Mean, par.Mean)
		}
	}

	// The default worker count must agree too.
	def, _, err := RunSeedsObserved(cfg, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, def) {
		t.Fatal("default workers differ from sequential")
	}
}

// TestRunSeedsParallelError checks that a config error surfaces from the
// parallel path just as it does sequentially.
func TestRunSeedsParallelError(t *testing.T) {
	bad := quickCfg()
	bad.InterArrival = -1
	if _, _, err := RunSeedsObserved(bad, DefaultSeeds(3), 2); err == nil {
		t.Fatal("expected config error from parallel run")
	}
}

// TestLaneShareBasicScenario verifies, on the paper's §4.1 single-link
// configuration, the premise the monotone lanes rest on: fixed-interval
// source and probe ticks are a large share of everything the run
// schedules, and they do reach the lanes (measured 87.1 %: data is booked at
// the sink with no link event, so what a run schedules is ticks, probe
// deliveries and one link wake-up per propagation delay).
func TestLaneShareBasicScenario(t *testing.T) {
	cfg := quickCfg()
	cfg.PrepopulateUtil = 0.9
	cfg.Duration, cfg.Warmup = 120*sim.Second, 20*sim.Second
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	c := r.Sim().Counters()
	share := float64(c.LaneAppends) / float64(c.LaneAppends+c.HeapSchedules)
	t.Logf("%d events: %d heap schedules, %d lane appends (%.1f %%), %d promotions, %d scrubbed, heap high-water %d",
		c.Executed, c.HeapSchedules, c.LaneAppends, 100*share, c.Promotions, c.Scrubbed, c.HeapHighWater)
	if share < 0.8 {
		t.Fatalf("lane appends are %.1f %% of schedules, want >= 80 %%", 100*share)
	}
	if c.Promotions > c.LaneAppends || c.HeapHighWater == 0 || c.Executed == 0 {
		t.Fatalf("implausible ledger: %+v", c)
	}
}

// TestTimerTierIsColdAtMetroScale is the count-based guard on the two-tier
// event queue: at MetroStar scale nearly every queue insert is a link's
// delivery event or a lane head, and those must reach the stream tier — a
// constructor that forgets InitStream shows here as a share, with no clock
// involved — while that tier stays at one slot per link and lane. The
// hybrid run carries its data as fluid, so there the probers' own timers
// are a large part of what is left; they go through lanes.
func TestTimerTierIsColdAtMetroScale(t *testing.T) {
	cfg := MetroStar(MetroStarOptions{Hosts: 2000})
	cfg.Method = EAC
	cfg.AC = admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.01,
		ProbeDur: 400 * sim.Millisecond, StageDur: 80 * sim.Millisecond, Guard: 16 * sim.Millisecond}
	cfg.InterArrival /= 20
	cfg.PrepopulateUtil *= 1.1
	cfg.Warmup, cfg.Drain, cfg.Seed = sim.Second, 50*sim.Millisecond, 1
	for _, hybrid := range []bool{false, true} {
		cfg.Hybrid.Enabled = hybrid
		cfg.Duration = 2 * sim.Second
		if hybrid { // two orders of magnitude fewer events per simulated second
			cfg.Duration = 12 * sim.Second
		}
		_, rec, err := NewWorkspace().RunRecorded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := rec.Queue[0]
		share := float64(c.StreamSchedules) / float64(c.HeapSchedules)
		t.Logf("hybrid=%v: %d events, %d schedules, %.1f %% on the stream tier (high-water %d of %d), %d lane appends",
			hybrid, c.Executed, c.HeapSchedules, 100*share, c.StreamHighWater, c.HeapHighWater, c.LaneAppends)
		if c.Executed < 100000 || share < 0.9 {
			t.Errorf("hybrid=%v: %d of %d schedules reached the stream tier (%.1f %%, want >= 90 %%), %d events",
				hybrid, c.StreamSchedules, c.HeapSchedules, 100*share, c.Executed)
		}
		if limit := len(cfg.Links) + 64; c.StreamHighWater > limit {
			t.Errorf("hybrid=%v: stream tier held %d entries, want <= one per link + one per lane = %d",
				hybrid, c.StreamHighWater, limit)
		}
	}
}

// TestRunLeavesCallerSlicesAlone pins that defaults are filled into copies:
// the Classes and Links backing arrays a caller passes in (and may share
// between the concurrent runs of RunSeedsObserved) read the same after Run
// as before.
func TestRunLeavesCallerSlicesAlone(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration, cfg.Warmup = 40*sim.Second, 10*sim.Second
	cfg.Classes = []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}, {Name: "named", Preset: trafgen.EXP1, Weight: 2, Eps: -1}}
	cfg.Links = []LinkSpec{{}, {RateBps: 5e6}}
	cfg.Classes[1].Path = []int{0, 1}
	if _, _, err := RunSeedsObserved(cfg, DefaultSeeds(2), 2); err != nil {
		t.Fatal(err)
	}
	if cl := cfg.Classes[0]; cl.Name != "" || cl.Weight != 0 {
		t.Errorf("Run wrote defaults into the caller's Classes: %+v", cl)
	}
	if cfg.Links[0] != (LinkSpec{}) || cfg.Links[1] != (LinkSpec{RateBps: 5e6}) {
		t.Errorf("Run wrote defaults into the caller's Links: %+v", cfg.Links)
	}
	resolved := cfg.WithDefaults()
	if again := resolved.WithDefaults(); &again.Classes[0] != &resolved.Classes[0] || &again.Links[0] != &resolved.Links[0] {
		t.Fatal("WithDefaults copied the slices of an already resolved config")
	}
}
