// Package eac is a from-scratch reproduction of "Endpoint Admission
// Control: Architectural Issues and Performance" (Breslau, Knightly,
// Shenker, Stoica, Zhang — SIGCOMM 2000).
//
// Endpoint admission control lets a host decide for itself whether the
// network can accept a new real-time flow: the host probes the path at the
// flow's token-bucket rate r, measures the fraction of probe packets lost
// (or ECN-marked), and admits the flow only if that fraction is at or
// below a threshold epsilon. Routers keep no per-flow state; they only
// need DiffServ-style priority queueing with a strict rate limit on the
// admission-controlled class.
//
// The package bundles a packet-level discrete-event network simulator, the
// paper's four prototype endpoint designs (drop/mark signal x in-band/
// out-of-band probing) with three probing algorithms (simple, early
// reject, slow start), the Measured Sum MBAC benchmark, the Table 1
// traffic sources, a TCP Reno model for the incremental-deployment study,
// and the analytic thrashing model of Section 2.2.3.
//
// # Quick start
//
//	cfg := eac.Config{
//		Method: eac.EAC,
//		AC: eac.ACConfig{
//			Design: eac.DropInBand,
//			Kind:   eac.SlowStart,
//			Eps:    0.01,
//		},
//	}
//	m, err := eac.Run(cfg)   // paper-scale run: 14000 simulated seconds
//	fmt.Println(m.Summary()) // util=0.87 loss=7e-03 blocking=0.27 ...
//
// See the examples directory for runnable programs and EXPERIMENTS.md for
// the reproduction of every table and figure in the paper.
//
// The surface is what it takes to build a Config, run it and read the
// result: the types of Config's fields and of the returned values, the
// constants and constructors that produce them, and the run functions.
// Workspaces, fingerprints, manifests and shard planning stay internal.
package eac

import (
	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/fluid"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Time re-exports the simulator clock type (int64 nanoseconds).
type Time = sim.Time

// Time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Seconds converts float seconds to a Time.
func Seconds(s float64) Time { return sim.Seconds(s) }

// Scenario configuration and results.
type (
	// Config describes one experiment: traffic mix, topology, admission
	// method, and measurement windows.
	Config = scenario.Config
	// ClassSpec is one traffic class of the offered mix.
	ClassSpec = scenario.ClassSpec
	// LinkSpec describes one congested link.
	LinkSpec = scenario.LinkSpec
	// Metrics is a single run's outcome.
	Metrics = scenario.Metrics
	// ClassMetrics holds per-class counters.
	ClassMetrics = scenario.ClassMetrics
	// MultiMetrics aggregates runs over several seeds.
	MultiMetrics = scenario.MultiMetrics
	// TCPShareConfig describes the Section 4.7 legacy-router experiment.
	TCPShareConfig = scenario.TCPShareConfig
	// TCPShareResult is its outcome.
	TCPShareResult = scenario.TCPShareResult
	// ObsConfig configures a run's observability collector (Config.Obs):
	// per-queue telemetry time series, a JSONL packet/event trace, and
	// artifact output. The zero value disables it at zero cost.
	ObsConfig = obs.Config
)

// Admission-control configuration.
type (
	// ACConfig parameterizes endpoint probing.
	ACConfig = admission.Config
	// Design selects congestion signal and probe band.
	Design = admission.Design
)

// Admission methods.
const (
	// EAC is endpoint admission control.
	EAC = scenario.EAC
	// MBAC is the router-based Measured Sum benchmark.
	MBAC = scenario.MBAC
	// NoAdmission admits every flow.
	NoAdmission = scenario.None
	// PassiveAdmission is the egress-router variant: flows are admitted
	// on passively monitored recent loss, with no probing delay.
	PassiveAdmission = scenario.Passive
)

// Queue disciplines for the admission-controlled class.
const (
	// QueuePushout is the default priority queue with probe push-out.
	QueuePushout = scenario.QueuePushout
	// QueueRED uses Random Early Detection (in-band designs only).
	QueueRED = scenario.QueueRED
)

// The four prototype endpoint designs of Section 3.1.
var (
	DropInBand    = admission.DropInBand
	DropOutOfBand = admission.DropOutOfBand
	MarkInBand    = admission.MarkInBand
	MarkOutOfBand = admission.MarkOutOfBand
	// VDropOutOfBand is the footnote-14 "virtual dropping" design: the
	// router's virtual queue drops probe packets early instead of
	// marking them, giving marking-like signals without ECN bits.
	VDropOutOfBand = admission.VDropOutOfBand
	// Designs lists the paper's four prototype designs.
	Designs = admission.Designs
)

// Probing algorithms.
const (
	Simple      = admission.Simple
	EarlyReject = admission.EarlyReject
	SlowStart   = admission.SlowStart
)

// Admission policy layer (see DESIGN.md §5): the accept/reject decision
// and probe-parameter choice behind Config.Policy.
type (
	// PolicyConfig selects and parameterizes the admission policy of an
	// EAC scenario. The zero value is the paper's static-ε prober.
	PolicyConfig = admission.PolicyConfig
	// PolicyKind enumerates the built-in policies.
	PolicyKind = admission.PolicyKind
)

// Temporal workload engine (see DESIGN.md §6): composable phase schedules
// and recorded-trace replay behind Config.Schedule / Config.Replay.
type (
	// Schedule is a sequence of load phases modulating the arrival rate
	// (zero value means stationary arrivals).
	Schedule = scenario.Schedule
	// Phase is one segment of a Schedule.
	Phase = scenario.Phase
	// PhaseKind enumerates the phase shapes.
	PhaseKind = scenario.PhaseKind
	// ReplayTrace re-drives flow arrivals recorded in an obs JSONL trace.
	ReplayTrace = scenario.ReplayTrace
	// ReplayArrival is one recorded arrival of a ReplayTrace.
	ReplayArrival = scenario.ReplayArrival
)

// Phase shapes.
const (
	PhaseConst = scenario.PhaseConst
	PhaseRamp  = scenario.PhaseRamp
	PhaseSine  = scenario.PhaseSine
)

// ParseSchedule parses the textual schedule grammar used by the
// -load.schedule flag (e.g. "const:100:1,ramp:60:1:3,spike:30:4,hold").
func ParseSchedule(spec string) (Schedule, error) { return scenario.ParseSchedule(spec) }

// NewReplayTrace builds a replay source from explicit arrivals.
func NewReplayTrace(arrivals []ReplayArrival, source string) (*ReplayTrace, error) {
	return scenario.NewReplayTrace(arrivals, source)
}

// LoadReplay reads a recorded obs JSONL event trace into a replay source.
func LoadReplay(path string) (*ReplayTrace, error) { return scenario.LoadReplay(path) }

// Built-in admission policies.
const (
	PolicyStatic        = admission.PolicyStatic
	PolicyAlwaysAdmit   = admission.PolicyAlwaysAdmit
	PolicyNeverAdmit    = admission.PolicyNeverAdmit
	PolicyTokenBucket   = admission.PolicyTokenBucket
	PolicyEpochAdaptive = admission.PolicyEpochAdaptive
)

// Traffic source presets of Table 1.
var (
	EXP1     = trafgen.EXP1
	EXP2     = trafgen.EXP2
	EXP3     = trafgen.EXP3
	EXP4     = trafgen.EXP4
	POO1     = trafgen.POO1
	StarWars = trafgen.StarWars
)

// Preset is a Table 1 traffic source description.
type Preset = trafgen.Preset

// LookupPreset resolves a preset by name (EXP1..EXP4, POO1, StarWars).
func LookupPreset(name string) (Preset, error) { return trafgen.Lookup(name) }

// Run executes one scenario and returns its metrics. A run is always
// K >= 1 domains over one kernel (DESIGN.md §4e): cfg.Shards > 1 asks the
// conservative-parallel executor for that many, and Shards <= 1 is K = 1,
// the barrier-free case whose output the goldens pin byte for byte.
func Run(cfg Config) (Metrics, error) { return scenario.Run(cfg) }

// RunSeeds runs a scenario once per seed and aggregates the results,
// mirroring the paper's seven-run averaging. Runs execute concurrently
// on up to GOMAXPROCS cores; the aggregate is identical to a sequential
// execution.
func RunSeeds(cfg Config, seeds []uint64) (MultiMetrics, error) {
	return scenario.RunSeeds(cfg, seeds)
}

// DefaultSeeds returns n deterministic seeds.
func DefaultSeeds(n int) []uint64 { return scenario.DefaultSeeds(n) }

// RunTCPShare executes the Section 4.7 legacy-router coexistence
// experiment (Figure 11).
func RunTCPShare(cfg TCPShareConfig) (TCPShareResult, error) {
	return scenario.RunTCPShare(cfg)
}

// ResultCache is the content-addressed on-disk result store behind
// Config.Cache (see DESIGN.md §4d): runs whose resolved-config+seed
// fingerprint is stored are served without simulating, byte-identically.
type ResultCache = cache.Store

// OpenResultCache opens (creating if necessary) a result cache rooted at
// dir; an empty dir selects $EAC_CACHE_DIR or the user cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return cache.Open(dir) }

// Fluid model (Section 2.2.3 / Figure 1).
type (
	// FluidParams parameterizes the analytic thrashing model.
	FluidParams = fluid.Params
	// FluidResult holds its stationary metrics.
	FluidResult = fluid.Result
)

// SolveFluid computes the thrashing model's stationary metrics exactly.
func SolveFluid(p FluidParams) (FluidResult, error) { return fluid.Solve(p) }

// NewFluidSolver returns a reusable workspace for SolveFluid-equivalent
// solves: its Solve method is identical to the package function but
// recycles internal slabs across calls (zero steady-state allocations).
func NewFluidSolver() *fluid.Solver { return fluid.NewSolver() }

// Transient fluid model and hybrid engine (see DESIGN.md, "Hybrid
// engine").
type (
	// HybridConfig enables the hybrid fluid/packet engine on a scenario
	// (Config.Hybrid): data phases become per-link fluid rates, probes
	// stay packets. The zero value keeps the pure packet engine.
	HybridConfig = scenario.HybridConfig
	// FluidTransient parameterizes the mean-field ODE model of admission
	// dynamics (time-varying counterpart of FluidParams).
	FluidTransient = fluid.Transient
	// FluidTransientResult holds a transient solve's trajectory and
	// quasi-stationary tail averages.
	FluidTransientResult = fluid.TransientResult
	// FluidTransientSample is one trajectory point of a transient solve.
	FluidTransientSample = fluid.TransientSample
	// FluidQueueModel selects the queue/marking approximation mapping
	// utilization to a congestion signal.
	FluidQueueModel = fluid.QueueModel
)

// Queue/marking approximations for the transient model and the hybrid
// engine's per-link fluid state.
const (
	// FluidBufferless is the paper's own fluid loss signal max(0, 1-1/rho).
	FluidBufferless = fluid.QueueBufferless
	// FluidDropTail is the M/M/1/B diffusion overflow probability.
	FluidDropTail = fluid.QueueDropTail
	// FluidREDApprox is RED's linear marking profile on the mean queue.
	FluidREDApprox = fluid.QueueREDApprox
	// FluidVirtual is drop-tail applied to a virtual queue (footnote 14).
	FluidVirtual = fluid.QueueVirtual
)

// SolveFluidTransient integrates the mean-field admission ODE with RK4,
// returning the trajectory and its quasi-stationary tail.
func SolveFluidTransient(tr FluidTransient) (FluidTransientResult, error) {
	return fluid.SolveTransient(tr)
}

// FluidMarkProb maps utilization rho to a drop/mark probability under the
// given queue model with the given buffer (packets).
func FluidMarkProb(m FluidQueueModel, rho float64, buffer int) float64 {
	return fluid.MarkProb(m, rho, buffer)
}
