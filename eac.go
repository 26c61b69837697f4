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
// The surface is what the examples, the README and this package's tests
// use — Config and the values they set in it, the run functions, the
// fluid solvers, the result cache — plus the types those signatures name.
// Policies, load schedules, replay traces and the other presets and queue
// models are reached through eacsim's flags or internal/scenario, and
// workspaces, fingerprints, manifests and shard planning stay internal.
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
	// ClassSpec is one traffic class of the offered mix; TCPFlows makes
	// it greedy TCP Reno flows (the Section 4.7 legacy router).
	ClassSpec = scenario.ClassSpec
	// LinkSpec describes one congested link.
	LinkSpec = scenario.LinkSpec
	// Metrics is a single run's outcome.
	Metrics = scenario.Metrics
	// MultiMetrics aggregates runs over several seeds.
	MultiMetrics = scenario.MultiMetrics
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
	// PassiveAdmission is the egress-router variant: flows are admitted
	// on passively monitored recent loss, with no probing delay.
	PassiveAdmission = scenario.Passive
)

// QueueRED selects Random Early Detection for the admission-controlled
// class (in-band designs only) instead of the default priority queue with
// probe push-out.
const QueueRED = scenario.QueueRED

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

// Traffic source presets of Table 1; LookupPreset resolves the others.
var (
	EXP1     = trafgen.EXP1
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
	// FluidQueueModel selects the queue/marking approximation mapping
	// utilization to a congestion signal.
	FluidQueueModel = fluid.QueueModel
)

// FluidDropTail is the M/M/1/B diffusion overflow probability, one of the
// queue approximations FluidMarkProb and FluidTransient take.
const FluidDropTail = fluid.QueueDropTail

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
