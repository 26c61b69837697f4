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
// The surface is what the examples and the README's code use — Config
// and the values they set in it, Run, the result cache — plus the types
// those signatures name. Everything else (policies, load schedules, the
// fluid model, seed sweeps, shard planning) is reached through eacsim's
// flags or the internal packages.
package eac

import (
	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Second is one second of simulated time (sim.Time counts nanoseconds).
const Second = sim.Second

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
)

// Probing algorithms.
const (
	Simple    = admission.Simple
	SlowStart = admission.SlowStart
)

// EXP1 is Table 1's exponential on-off voice source.
var EXP1 = trafgen.EXP1

// Run executes one scenario and returns its metrics. A run is always
// K >= 1 domains over one kernel (DESIGN.md §4e): cfg.Shards > 1 asks the
// conservative-parallel executor for that many, and Shards <= 1 is K = 1,
// the barrier-free case whose output the goldens pin byte for byte.
func Run(cfg Config) (Metrics, error) { return scenario.Run(cfg) }

// ResultCache is the content-addressed on-disk result store behind
// Config.Cache (see DESIGN.md §4d): runs whose resolved-config+seed
// fingerprint is stored are served without simulating, byte-identically.
type ResultCache = cache.Store

// OpenResultCache opens (creating if necessary) a result cache rooted at
// dir; an empty dir selects $EAC_CACHE_DIR or the user cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return cache.Open(dir) }
