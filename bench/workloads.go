package main

import (
	"fmt"

	"eac/internal/admission"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// runConfig is the complete generated input of one run. The parent derives
// it from (workload, seed, scale) and hands it to the child process on
// standard input; the child sees nothing else.
type runConfig struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Kind selects the builder: "link" (paper §4.1 single link), "metro"
	// (scenario.MetroStar) or "grid" (experiments figure2).
	Kind string `json:"kind"`

	// link
	InterArrival float64 `json:"inter_arrival,omitempty"`
	LifetimeSec  float64 `json:"lifetime_s,omitempty"`
	Prepopulate  float64 `json:"prepopulate,omitempty"`
	Schedule     string  `json:"schedule,omitempty"`
	PolicyEpoch  int     `json:"policy_epoch,omitempty"`
	TargetLoss   float64 `json:"target_loss,omitempty"`
	Obs          bool    `json:"obs,omitempty"`

	// metro: multipliers on the preset's arrival rate and prepopulation.
	Hosts    int     `json:"hosts,omitempty"`
	ArrivalX float64 `json:"arrival_x,omitempty"`
	PrepopX  float64 `json:"prepop_x,omitempty"`
	Hybrid   bool    `json:"hybrid,omitempty"`
	Shards   int     `json:"shards,omitempty"`

	// link and metro
	Eps      float64 `json:"eps,omitempty"`
	ProbeSec float64 `json:"probe_s,omitempty"`
	StageSec float64 `json:"stage_s,omitempty"`
	GuardSec float64 `json:"guard_s,omitempty"`
	DrainSec float64 `json:"drain_s,omitempty"`

	// all kinds: simulated run length (grid: per cell)
	DurationSec float64 `json:"duration_s"`
	WarmupSec   float64 `json:"warmup_s"`

	// grid
	Workers int `json:"workers,omitempty"`

	// harness plumbing
	Dir         string `json:"dir"`   // scratch directory: obs artifacts, result cache
	Trace       bool   `json:"trace"` // record harness-side spans
	SpawnUnixNs int64  `json:"spawn_unix_ns"`
}

// band is a closed interval a simulated statistic must stay inside.
type band struct{ lo, hi float64 }

func (b band) holds(v float64) bool { return v >= b.lo && v <= b.hi }

// workload is one named benchmark input; BENCHMARK.json and README.md say
// why each exists. gen is a pure function of (seed, scale): the same pair
// always yields the same runConfig.
type workload struct {
	name string
	gen  func(seed uint64, scale float64) runConfig
	// Operating-point envelope: a run whose link-0 utilisation or blocking
	// probability leaves these bands counts as failed. Zero bands (the
	// grid) are not checked.
	util, blocking band
	// minProcs is the GOMAXPROCS below which the suite skips the workload
	// as unresolved (its numbers would not mean what its name says).
	minProcs int
	// ungated, when set, says why BENCHMARK.json does not list the workload:
	// the suite and the traced passes still run it, but no bound is held
	// against its end-to-end metrics.
	ungated string
}

// Scale 1 sizes every workload to 2–3 s of host wall clock on the 2-core
// reference host: the contract's cap on total benchmark time leaves ~24 s
// per invocation, and an invocation needs four or more runs for a median.
// The simulated durations below are therefore the ISSUE's sizes times one
// common factor of about 0.35; -scale multiplies them again.

func linkConfig(name string, seed uint64, scale, durSec float64) runConfig {
	return runConfig{
		Workload: name, Seed: seed, Kind: "link",
		InterArrival: 0.35, LifetimeSec: 30, Prepopulate: 0.9,
		Eps: 0.01, DrainSec: 2,
		DurationSec: durSec * scale, WarmupSec: durSec * scale / 10,
	}
}

// The metro runs last about one simulated second, far less than the paper's
// 5 s probe, so a probe is shrunk (same five slow-start stages) until accept
// and reject decisions both complete inside the accounting window; without
// that, blocking_prob can only read 0 or 1. Arrivals are raised so the
// window holds a few hundred decisions, and prepopulation puts the links at
// ~1.0 load, where probes see loss.
func metroConfig(name string, seed uint64, scale float64) runConfig {
	return runConfig{
		Workload: name, Seed: seed, Kind: "metro",
		Hosts: 10000, ArrivalX: 20, PrepopX: 1.15,
		Eps: 0.01, ProbeSec: 0.4, StageSec: 0.08, GuardSec: 0.016,
		DurationSec: 1.0 * scale, WarmupSec: 0.5 * scale, DrainSec: 0.05 * scale,
	}
}

var workloads = []workload{
	{
		name: "bottleneck",
		gen: func(seed uint64, scale float64) runConfig {
			return linkConfig("bottleneck", seed, scale, 1200)
		},
		util: band{0.6, 0.95}, blocking: band{0.2, 0.4},
	},
	{
		name: "bottleneck_obs",
		gen: func(seed uint64, scale float64) runConfig {
			rc := linkConfig("bottleneck_obs", seed, scale, 1200)
			rc.Obs = true
			return rc
		},
		util: band{0.6, 0.95}, blocking: band{0.2, 0.4},
	},
	{
		name: "flash_crowd",
		gen: func(seed uint64, scale float64) runConfig {
			rc := linkConfig("flash_crowd", seed, scale, 1000)
			d := rc.DurationSec
			rc.Eps = 0.02
			rc.Schedule = fmt.Sprintf("const:%g:1,spike:%g:4,const:%g:1,spike:%g:4,hold", d/30, d/15, d/10, d/15)
			rc.PolicyEpoch, rc.TargetLoss = 10, 0.005
			return rc
		},
		util: band{0.5, 0.95}, blocking: band{0.5, 1},
	},
	{
		name: "metro_serial",
		gen: func(seed uint64, scale float64) runConfig {
			return metroConfig("metro_serial", seed, scale)
		},
		util: band{0.85, 1.001}, blocking: band{0.05, 0.7},
	},
	{
		name: "metro_shard2",
		gen: func(seed uint64, scale float64) runConfig {
			rc := metroConfig("metro_shard2", seed, scale)
			rc.Shards = 2
			return rc
		},
		util: band{0.85, 1.001}, blocking: band{0.05, 0.7},
		minProcs: 2,
		// Two shard goroutines, the coordinator and the collector's workers
		// on two shared cores: the same code's wall_s and cpu_s spread 23-27 %
		// between ten invocations, past the 25 % a bound may be.
		ungated: "runs of the same code spread past the largest bound the contract allows",
	},
	{
		name: "metro_hybrid",
		gen: func(seed uint64, scale float64) runConfig {
			return runConfig{
				Workload: "metro_hybrid", Seed: seed, Kind: "metro",
				Hosts: 100000, ArrivalX: 2, PrepopX: 1.1, Hybrid: true,
				Eps: 0.01, ProbeSec: 2.5, StageSec: 0.5, GuardSec: 0.1,
				DurationSec: 12 * scale, WarmupSec: 3.5 * scale, DrainSec: 0.5 * scale,
			}
		},
		util: band{0.85, 1.001}, blocking: band{0.05, 0.7},
	},
	{
		name: "figure2_grid",
		gen: func(seed uint64, scale float64) runConfig {
			// The experiments API takes a seed count, not a seed, so the
			// grid's inputs are the same for every seed. The measured runs
			// use one worker: on gridWorkers workers, two busy threads on the
			// two cores of a shared host, ten invocations of the same code
			// spread twice as wide (14-20 % of the median against 7-10 %).
			// The traced pass runs the grid once more on gridWorkers for
			// experiments.parallel_eff.
			return runConfig{
				Workload: "figure2_grid", Seed: seed, Kind: "grid",
				DurationSec: 120 * scale, WarmupSec: 12 * scale,
				Workers: 1,
			}
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// gridWorkers is the worker count of the grid's extra run in the traced pass.
const gridWorkers = 2

// gridCells is the row count of the full quick figure-2 grid: four designs
// with four thresholds each plus two MBAC targets.
const gridCells = 18

// gridEventsPerCellSecond is the nominal event rate of one figure-2 cell.
// experiments.Experiment.Run returns only the table, so the grid's executed
// events cannot be counted from outside; per-event figures for the grid use
// cells x simulated seconds x this constant (measured on the bottleneck
// cell), which keeps allocs_per_kevent proportional to allocations per unit
// of simulated work.
const gridEventsPerCellSecond = 27000

// scenarioConfig turns a link or metro runConfig into the simulator's
// configuration.
func scenarioConfig(rc runConfig) (scenario.Config, error) {
	var cfg scenario.Config
	switch rc.Kind {
	case "link":
		cfg = scenario.Config{
			InterArrival:    rc.InterArrival,
			LifetimeSec:     rc.LifetimeSec,
			PrepopulateUtil: rc.Prepopulate,
		}
		if rc.Schedule != "" {
			s, err := scenario.ParseSchedule(rc.Schedule)
			if err != nil {
				return cfg, err
			}
			cfg.Schedule = s
		}
		if rc.PolicyEpoch > 0 {
			cfg.Policy = admission.PolicyConfig{
				Kind: admission.PolicyEpochAdaptive, Epoch: rc.PolicyEpoch, TargetLoss: rc.TargetLoss,
			}
		}
		if rc.Obs {
			cfg.Obs = obs.Config{
				Enabled: true, Dir: rc.Dir,
				MetricsInterval: sim.Second, TraceCapacity: 4096,
			}
		}
	case "metro":
		cfg = scenario.MetroStar(scenario.MetroStarOptions{Hosts: rc.Hosts})
		cfg.InterArrival /= rc.ArrivalX
		cfg.PrepopulateUtil *= rc.PrepopX
		cfg.Hybrid.Enabled = rc.Hybrid
		cfg.Shards = rc.Shards
	default:
		return cfg, fmt.Errorf("workload kind %q has no scenario config", rc.Kind)
	}
	cfg.Name = rc.Workload
	cfg.Method = scenario.EAC
	cfg.AC = admission.Config{
		Design: admission.DropInBand, Kind: admission.SlowStart, Eps: rc.Eps,
		ProbeDur: sim.Seconds(rc.ProbeSec), StageDur: sim.Seconds(rc.StageSec), Guard: sim.Seconds(rc.GuardSec),
	}
	cfg.Duration = sim.Seconds(rc.DurationSec)
	cfg.Warmup = sim.Seconds(rc.WarmupSec)
	cfg.Drain = sim.Seconds(rc.DrainSec)
	cfg.Seed = rc.Seed
	return cfg, nil
}
