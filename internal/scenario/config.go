// Package scenario assembles simulator, topology, traffic sources, and an
// admission control method into the experiments of Section 4 of the paper:
// Poisson flow arrivals with exponential lifetimes offered to a single
// congested link (or a multi-hop backbone), admitted by endpoint probing or
// by the Measured Sum MBAC, with the paper's metrics — utilization of the
// allocated share by data packets, data packet loss probability, and
// per-class flow blocking probability.
//
// Concurrency: a run uses one goroutine per domain (one in all, unless
// Config.Shards asks for more), and distinct runs are independent — a
// Runner and everything it reaches (its domains' simulators, packet
// pools and RNG streams) is per-run state, and the package-level
// tables it consults (trafgen presets, admission designs) are immutable
// after init. RunSeedsObserved and the experiment sweep engine rely on
// this to execute runs on concurrent goroutines.
package scenario

import (
	"fmt"
	"math"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/mbac"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/stats"
	"eac/internal/trafgen"
)

// Method selects the admission control machinery.
type Method uint8

// Admission methods.
const (
	// EAC is endpoint admission control (the paper's designs).
	EAC Method = iota
	// MBAC is the router-based Measured Sum benchmark.
	MBAC
	// None admits every flow (used for calibration and tests).
	None
	// Passive is the edge-router variant the paper attributes to
	// Cetinkaya & Knightly [5]: the endpoint (an egress router) admits
	// flows based on passively monitored recent loss instead of active
	// probing, avoiding the multi-second set-up delay. Flows start
	// instantly when the monitored loss fraction is at or below their
	// class's threshold (ClassSpec.Eps, else AC.Eps).
	Passive
)

func (m Method) String() string {
	switch m {
	case MBAC:
		return "MBAC"
	case None:
		return "none"
	case Passive:
		return "passive"
	default:
		return "EAC"
	}
}

// QueueKind selects the buffering discipline of the congested links.
type QueueKind uint8

// Queue kinds.
const (
	// QueuePushout is the default: strict-priority bands with a shared
	// buffer and probe push-out (Section 3.1).
	QueuePushout QueueKind = iota
	// QueueRED uses Random Early Detection. Only meaningful for in-band
	// designs (RED keeps a single FIFO); the paper used drop-tail "for
	// ease of simulation" and conjectured RED would not change the
	// results.
	QueueRED
)

// ClassSpec is one traffic class in the offered mix.
type ClassSpec struct {
	Name   string
	Preset trafgen.Preset
	// Weight is the probability mass of this class in the aggregate
	// Poisson arrival process (normalized across classes).
	Weight float64
	// Eps, if non-negative, overrides Admission.Eps for this class
	// (Table 3's heterogeneous-threshold experiment). Negative means
	// "use the scenario-wide threshold".
	Eps float64
	// Path lists the indices of the congested links this class's flows
	// traverse, in order. Empty means link 0 only.
	Path []int
}

// HybridConfig selects the hybrid fluid/packet engine: every class's data
// phase is carried as piecewise-constant fluid rates on its path links
// while admission probing stays packet-level, so million-host operating
// points run in milliseconds with packet-accurate probe dynamics. See
// netsim.FluidBackground for the link-level contract (the fluid's share of
// a link is capped at 0.95) and internal/conformance's hybrid crossval for
// the calibrated agreement envelopes.
type HybridConfig struct {
	// Enabled turns the hybrid engine on. The zero value keeps the pure
	// packet path byte-identical to prior releases.
	Enabled bool
}

// Active reports whether the hybrid engine is on.
func (h HybridConfig) Active() bool { return h.Enabled }

// LinkSpec describes one congested link.
type LinkSpec struct {
	RateBps    float64  // allocated share of the admission-controlled class
	Delay      sim.Time // propagation delay
	BufferPkts int      // shared buffer, packets
}

// Config is a full experiment description. Zero fields default to the
// paper's basic scenario (Section 4.1).
type Config struct {
	Name    string
	Classes []ClassSpec
	Links   []LinkSpec

	// InterArrival is the mean of the aggregate Poisson flow
	// inter-arrival time, seconds (paper tau).
	InterArrival float64
	// LifetimeSec is the mean exponential flow lifetime (default 300 s).
	LifetimeSec float64
	// Schedule, when active, drives the arrival rate through a sequence of
	// composable load phases (constant, ramp, spike, sawtooth, sine; see
	// Schedule and ParseSchedule), realized by Lewis–Shedler thinning
	// against the schedule's global peak on the dedicated "load" RNG
	// stream. The zero value keeps the stationary Poisson process.
	// Mutually exclusive with Replay.
	Schedule Schedule
	// Replay, when non-nil, replaces the Poisson arrival process entirely:
	// flow arrival times and classes are re-driven verbatim from a
	// recorded obs JSONL trace (see ReplayTrace and LoadReplay), so a
	// replayed run with the same seed and parameters reproduces the
	// recorded run's aggregate metrics byte-for-byte. Mutually exclusive
	// with Schedule.
	Replay *ReplayTrace

	Method Method
	AC     admission.Config // used when Method == EAC
	MS     mbac.Config      // used when Method == MBAC
	// Policy selects the admission policy layered over the probing
	// machinery (Method == EAC): the zero value is the paper's static-ε
	// rule, byte-identical to prior releases; other kinds add token-bucket
	// rate costs or epoch-based ε adaptation (see admission.PolicyConfig).
	Policy admission.PolicyConfig

	// Queue selects the router buffering discipline for the
	// admission-controlled class.
	Queue QueueKind

	// VQFactor is the virtual queue speed as a fraction of the link rate
	// (default 0.9), used by marking designs.
	VQFactor float64

	// Duration is total simulated time; Warmup is discarded (defaults
	// 14000 s and 2000 s, the paper's choices). Drain is subtracted from
	// the end of the packet-accounting window so in-flight packets are
	// not miscounted as lost (default 2 s).
	Duration, Warmup, Drain sim.Time

	// MaxRetries, if positive, lets a rejected flow retry admission with
	// exponential back-off (footnote 10 of the paper: "rejected flows
	// should use exponential back-off before retrying"). The first retry
	// waits ~5 s, doubling per attempt, with +/-50% jitter. Blocking
	// statistics count each flow once, by its final outcome.
	MaxRetries int

	// Obs configures the run's observability collector (internal/obs):
	// per-queue telemetry time series sampled on a sim-time interval, a
	// ring-buffered packet/event trace exported as JSONL, and admission
	// decision events. The zero value keeps observability fully disabled
	// — no collector is constructed, the hot paths see only nil checks,
	// and all metrics and logs are byte-identical to an unobserved run.
	// Each seed's run constructs its own collector from this value, so
	// parallel seed runs stay independent.
	Obs obs.Config

	// Cache, if non-nil, is a content-addressed result store consulted by
	// Run and Workspace.Run: a run whose Fingerprint (resolved config +
	// seed + ResultsVersion) is already stored returns the cached Metrics
	// without simulating, and a computed run is stored for next time.
	// Corrupt or undecodable entries are dropped and recomputed silently.
	// The field itself is excluded from the fingerprint, and it is ignored
	// while Obs is active — a cached run cannot produce the observability
	// artifacts the caller asked for.
	Cache *cache.Store

	// Shards is the number K of domains the run's links are partitioned
	// into (clamped to the number of links; 0 means 1). Every run is K
	// domains under the conservative windowed executor
	// (internal/sim/shard): K = 1 is the single-threaded run every golden
	// records, K ≥ 2 runs the domains concurrently with boundary-link
	// propagation delay as lookahead. Runs are deterministic for a fixed K
	// but only statistically equivalent across K (the per-domain arrival
	// processes are independent thinnings of the aggregate process); see
	// DESIGN.md §4e. K ≥ 2 requires Method EAC or None and Hybrid off.
	Shards int

	// Hybrid, when enabled, carries every class's data phase as per-link
	// fluid rates instead of packets (the hybrid fluid/packet engine; see
	// HybridConfig). Disabled by default — the zero value leaves the packet
	// path byte-identical. Requires Method EAC or None (MBAC and Passive
	// measure data packets the fluid no longer sends) and Shards ≤ 1.
	Hybrid HybridConfig

	// PrepopulateUtil, if positive, seeds the simulation at time zero
	// with enough already-admitted flows to load link 0 to roughly this
	// average utilization. Exponential lifetimes are memoryless, so the
	// seeded population is a valid stationary sample and lets shortened
	// runs (with warmups much smaller than the paper's 2000 s) start near
	// steady state. Seeded flows bypass admission and are excluded from
	// blocking statistics (their packets still count).
	PrepopulateUtil float64

	Seed uint64
}

// WithDefaults returns the config with paper defaults filled in.
func (c Config) WithDefaults() Config {
	if len(c.Classes) == 0 {
		c.Classes = []ClassSpec{{Name: "EXP1", Preset: trafgen.EXP1, Weight: 1, Eps: -1}}
	}
	// Classes and Links are the caller's slices, possibly shared by
	// concurrent runs of one Config (RunSeedsObserved): an element that
	// needs a default is filled in a copy. Resolved configs copy nothing.
	copied := false
	for i, cl := range c.Classes {
		if cl.Weight != 0 && cl.Name != "" {
			continue
		}
		if !copied {
			c.Classes, copied = append([]ClassSpec(nil), c.Classes...), true
		}
		if cl.Weight == 0 {
			c.Classes[i].Weight = 1
		}
		if cl.Name == "" {
			c.Classes[i].Name = cl.Preset.Name
		}
	}
	copied = len(c.Links) == 0
	if copied {
		c.Links = []LinkSpec{{}}
	}
	for i, ls := range c.Links {
		if ls.RateBps != 0 && ls.Delay != 0 && ls.BufferPkts != 0 {
			continue
		}
		if !copied {
			c.Links, copied = append([]LinkSpec(nil), c.Links...), true
		}
		if ls.RateBps == 0 {
			c.Links[i].RateBps = 10e6
		}
		if ls.Delay == 0 {
			c.Links[i].Delay = 20 * sim.Millisecond
		}
		if ls.BufferPkts == 0 {
			c.Links[i].BufferPkts = 200
		}
	}
	if c.InterArrival == 0 {
		c.InterArrival = 3.5
	}
	if c.LifetimeSec == 0 {
		c.LifetimeSec = 300
	}
	if c.VQFactor == 0 {
		c.VQFactor = 0.9
	}
	if c.Duration == 0 {
		c.Duration = 14000 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 2000 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 2 * sim.Second
	}
	c.AC = c.AC.WithDefaults()
	c.Policy = c.Policy.WithDefaults()
	if c.Method == MBAC && c.MS.Target == 0 {
		c.MS.Target = 0.95
	}
	return c
}

// Validate reports configuration errors a zero default cannot fix.
func (c Config) Validate() error {
	// NaN and ±Inf pass every sign check; the run divides or draws by these.
	for _, f := range []struct {
		field string
		v     float64
	}{{"InterArrival", c.InterArrival}, {"LifetimeSec", c.LifetimeSec},
		{"PrepopulateUtil", c.PrepopulateUtil}, {"AC.Eps", c.AC.Eps}, {"VQFactor", c.VQFactor}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s = %g, want a finite number", f.field, f.v)
		}
	}
	if c.InterArrival < 0 || c.LifetimeSec < 0 {
		return fmt.Errorf("scenario: InterArrival (%g) and LifetimeSec (%g) must be >= 0", c.InterArrival, c.LifetimeSec)
	}
	if c.AC.Eps < 0 {
		return fmt.Errorf("scenario: AC.Eps = %g, want >= 0", c.AC.Eps)
	}
	if c.VQFactor < 0 {
		return fmt.Errorf("scenario: VQFactor = %g, want >= 0 (0 = default)", c.VQFactor)
	}
	for _, d := range []struct {
		field string
		v     sim.Time
	}{{"Duration", c.Duration}, {"Warmup", c.Warmup}, {"Drain", c.Drain},
		{"AC.ProbeDur", c.AC.ProbeDur}, {"AC.StageDur", c.AC.StageDur}, {"AC.Guard", c.AC.Guard}} {
		if d.v < 0 {
			return fmt.Errorf("scenario: %s = %v, want >= 0 (0 = default)", d.field, d.v)
		}
	}
	if c.Warmup+c.Drain >= c.Duration && c.Duration > 0 {
		return fmt.Errorf("scenario: warmup+drain (%v) must be shorter than duration (%v)", c.Warmup+c.Drain, c.Duration)
	}
	// Zero selects a default for each of these; a negative value (or a NaN
	// rate) is a request the model cannot run. A resolved config that
	// passes therefore has positive link delays: the lookahead every shard
	// boundary needs.
	for i, ls := range c.Links {
		switch {
		case !(ls.RateBps >= 0) || math.IsInf(ls.RateBps, 1):
			return fmt.Errorf("scenario: Links[%d].RateBps = %g, want finite and >= 0 (0 = default)", i, ls.RateBps)
		case ls.BufferPkts < 0:
			return fmt.Errorf("scenario: Links[%d].BufferPkts = %d, want >= 0 (0 = default)", i, ls.BufferPkts)
		case ls.Delay < 0:
			return fmt.Errorf("scenario: Links[%d].Delay = %v, want >= 0 (0 = default)", i, ls.Delay)
		}
	}
	if c.Method == MBAC && !(c.MS.Target >= 0) {
		return fmt.Errorf("scenario: MS.Target = %g, want >= 0 (0 = default)", c.MS.Target)
	}
	total := 0.0
	for i, cl := range c.Classes {
		if !(cl.Weight >= 0) || math.IsInf(cl.Weight, 1) {
			return fmt.Errorf("scenario: Classes[%d].Weight = %g, want finite and >= 0", i, cl.Weight)
		}
		if math.IsNaN(cl.Eps) || math.IsInf(cl.Eps, 0) {
			return fmt.Errorf("scenario: Classes[%d].Eps = %g, want a finite number (< 0 = AC.Eps)", i, cl.Eps)
		}
		total += cl.Weight
		for _, li := range cl.Path {
			if li < 0 || li >= len(c.Links) {
				return fmt.Errorf("scenario: class %q path references link %d of %d", cl.Name, li, len(c.Links))
			}
		}
	}
	if len(c.Classes) > 0 && total <= 0 {
		return fmt.Errorf("scenario: class weights sum to zero")
	}
	if c.Method == EAC {
		if c.AC.Design.Signal == admission.VDrop && c.AC.Design.Band != admission.OutOfBand {
			return fmt.Errorf("scenario: virtual dropping requires out-of-band probing (footnote 14)")
		}
		if c.Queue == QueueRED && c.AC.Design.Band == admission.OutOfBand {
			return fmt.Errorf("scenario: RED keeps a single FIFO and cannot host out-of-band probes")
		}
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Policy.Kind != admission.PolicyStatic && c.Method != EAC {
		return fmt.Errorf("scenario: admission policy %s requires method EAC", c.Policy.Kind)
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	if c.Replay != nil {
		if c.Schedule.Active() {
			return fmt.Errorf("scenario: Replay and Schedule are mutually exclusive")
		}
		if mc := c.Replay.MaxClass(); mc >= len(c.Classes) {
			return fmt.Errorf("scenario: replay trace references class %d but the config has %d classes", mc, len(c.Classes))
		}
	}
	// K is what Shards says, clamped to the link count; a K the model
	// cannot run is an error, never a quiet fall-back to one domain.
	if c.Shards < 0 {
		return fmt.Errorf("scenario: Shards = %d, want >= 0 (0 and 1 = one domain)", c.Shards)
	}
	if effectiveShards(c) > 1 {
		if c.Method != EAC && c.Method != None {
			return fmt.Errorf("scenario: Shards = %d requires method EAC or none (%s reads router state across shards)", c.Shards, c.Method)
		}
		if c.Hybrid.Active() {
			return fmt.Errorf("scenario: hybrid engine requires Shards <= 1, got %d (fluid link state is not shard-local)", c.Shards)
		}
	}
	if c.Hybrid.Active() {
		if c.Method != EAC && c.Method != None {
			return fmt.Errorf("scenario: hybrid engine requires method EAC or none (%s measures data packets the fluid does not send)", c.Method)
		}
	}
	return nil
}

// ClassMetrics aggregates per-class results.
type ClassMetrics struct {
	Name     string
	Arrived  int64 // decided flows arriving after warmup
	Accepted int64
	Blocked  int64
	DataSent int64 // packets emitted in the accounting window
	DataLost int64
}

// BlockingProb returns the class blocking probability.
func (cm ClassMetrics) BlockingProb() float64 {
	if cm.Arrived == 0 {
		return 0
	}
	return float64(cm.Blocked) / float64(cm.Arrived)
}

// LossProb returns the class data-loss probability.
func (cm ClassMetrics) LossProb() float64 {
	if cm.DataSent == 0 {
		return 0
	}
	return float64(cm.DataLost) / float64(cm.DataSent)
}

// LinkMetrics reports one link's post-warmup counters.
type LinkMetrics struct {
	Utilization   float64 // data share of the allocated bandwidth
	ProbeShare    float64 // probe share of the allocated bandwidth
	DataLossProb  float64 // fraction of arriving data packets dropped here
	ProbeLossProb float64
}

// Metrics is the outcome of one run.
type Metrics struct {
	// Utilization is the data utilization of link 0 (the single
	// congested link in one-link scenarios).
	Utilization float64
	// DataLossProb is the end-to-end data packet loss probability across
	// all flows, measured in the accounting window.
	DataLossProb float64
	// BlockingProb is the overall flow blocking probability.
	BlockingProb float64
	Classes      []ClassMetrics
	Links        []LinkMetrics
	// ProbeShare is link 0's bandwidth fraction consumed by probes.
	ProbeShare float64
	// Decided counts flows with an admission decision after warmup.
	Decided int64
	// Retries counts admission re-attempts scheduled by the retry policy.
	Retries int64
	// MeanDelaySec and P99DelaySec summarize end-to-end data packet
	// delay (propagation + queueing) in the accounting window. The paper
	// argues queueing delay stays small because the admission-controlled
	// queue is kept shallow; these fields let experiments verify that.
	MeanDelaySec, P99DelaySec float64
	// MeanEps is the mean admission threshold in force across the EAC
	// flows decided in the accounting window (each flow contributes the ε
	// its final decision was made against). Under the static policy it
	// equals the configured ε; under the epoch-adaptive policy it traces
	// the adapted threshold, which is what the flash_crowd experiment
	// plots through a spike. Zero for non-EAC methods.
	MeanEps float64
}

// Summary formats the headline numbers.
func (m Metrics) Summary() string {
	return fmt.Sprintf("util=%.3f loss=%.2e blocking=%.3f probe-share=%.3f",
		m.Utilization, m.DataLossProb, m.BlockingProb, m.ProbeShare)
}

// MultiMetrics averages metrics over seeds.
type MultiMetrics struct {
	Runs []Metrics
	// Mean holds per-field means; Classes and Links are averaged
	// elementwise.
	Mean Metrics
	// UtilStderr and LossStderr are standard errors of the headline
	// means across runs.
	UtilStderr, LossStderr float64
}

// Aggregate combines per-seed run metrics into a MultiMetrics. The runs
// slice is retained as MultiMetrics.Runs; averaging is order-sensitive
// only through float summation, so callers that want reproducible output
// must pass runs in seed order (RunSeeds and the experiment engine do).
func Aggregate(runs []Metrics) MultiMetrics {
	mm := MultiMetrics{Runs: runs}
	if len(runs) == 0 {
		return mm
	}
	var util, loss, block, probe, decided, retries, mdel, p99, meps stats.Welford
	mm.Mean.Classes = make([]ClassMetrics, len(runs[0].Classes))
	mm.Mean.Links = make([]LinkMetrics, len(runs[0].Links))
	for i := range mm.Mean.Classes {
		mm.Mean.Classes[i].Name = runs[0].Classes[i].Name
	}
	for _, r := range runs {
		util.Add(r.Utilization)
		loss.Add(r.DataLossProb)
		block.Add(r.BlockingProb)
		probe.Add(r.ProbeShare)
		decided.Add(float64(r.Decided))
		retries.Add(float64(r.Retries))
		mdel.Add(r.MeanDelaySec)
		p99.Add(r.P99DelaySec)
		meps.Add(r.MeanEps)
		for i := range r.Classes {
			mm.Mean.Classes[i].Arrived += r.Classes[i].Arrived
			mm.Mean.Classes[i].Accepted += r.Classes[i].Accepted
			mm.Mean.Classes[i].Blocked += r.Classes[i].Blocked
			mm.Mean.Classes[i].DataSent += r.Classes[i].DataSent
			mm.Mean.Classes[i].DataLost += r.Classes[i].DataLost
		}
		for i := range r.Links {
			mm.Mean.Links[i].Utilization += r.Links[i].Utilization / float64(len(runs))
			mm.Mean.Links[i].ProbeShare += r.Links[i].ProbeShare / float64(len(runs))
			mm.Mean.Links[i].DataLossProb += r.Links[i].DataLossProb / float64(len(runs))
			mm.Mean.Links[i].ProbeLossProb += r.Links[i].ProbeLossProb / float64(len(runs))
		}
	}
	mm.Mean.Utilization = util.Mean()
	mm.Mean.DataLossProb = loss.Mean()
	mm.Mean.BlockingProb = block.Mean()
	mm.Mean.ProbeShare = probe.Mean()
	mm.Mean.Decided = int64(decided.Mean() * float64(len(runs)))
	mm.Mean.Retries = int64(retries.Mean() * float64(len(runs)))
	mm.Mean.MeanDelaySec = mdel.Mean()
	mm.Mean.P99DelaySec = p99.Mean()
	mm.Mean.MeanEps = meps.Mean()
	mm.UtilStderr = util.StderrMean()
	mm.LossStderr = loss.StderrMean()
	return mm
}
