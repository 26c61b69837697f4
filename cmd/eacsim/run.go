package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// The -method, -design and -prober vocabularies.
var (
	methodNames = map[string]scenario.Method{
		"eac": scenario.EAC, "mbac": scenario.MBAC, "passive": scenario.Passive,
	}
	designNames = map[string]admission.Design{
		"drop-in": admission.DropInBand, "drop-out": admission.DropOutOfBand,
		"mark-in": admission.MarkInBand, "mark-out": admission.MarkOutOfBand,
		"vdrop-out": admission.VDropOutOfBand,
	}
	proberNames = map[string]admission.ProberKind{
		"simple": admission.Simple, "early-reject": admission.EarlyReject, "slow-start": admission.SlowStart,
	}
)

// lookup resolves the value s of a name-valued flag in its vocabulary, or
// ends the command naming the flag, the value and the names it takes.
func lookup[T any](name, s string, vocab map[string]T) T {
	v, ok := vocab[s]
	if !ok {
		names := make([]string, 0, len(vocab))
		for n := range vocab {
			names = append(names, n)
		}
		sort.Strings(names)
		log.Fatalf("unknown %s %q (%s)", name, s, strings.Join(names, ", "))
	}
	return v
}

// nameOf is v's name in vocab.
func nameOf[T comparable](vocab map[string]T, v T) string {
	for n, x := range vocab {
		if x == v {
			return n
		}
	}
	return ""
}

// runReads is what eacsim run reads, given the resolved config and whether
// the topology is basic: ε, the design and the prober only when flows probe,
// τ only when arrivals are drawn.
func runReads(cfg scenario.Config, basic bool) reader {
	eac, policy := cfg.Method == scenario.EAC, cfg.Policy.Kind
	probes := eac && policy.Probes()
	noProbe := "when flows probe (-method eac with a probing -policy)"
	return gates(
		gate{cfg.Obs.Enabled, needsObs, "metrics-interval trace-cap perfetto"},
		gate{basic, "is not read by -topology metro-star: the preset derives its traffic and link rates from -hosts", "source tau life link prepopulate"},
		gate{cfg.Replay == nil, "is not read with -load.replay: the recorded arrivals replace the Poisson process", "tau"},
		gate{!basic, "sizes -topology metro-star; the basic topology is one link", "chains hops hosts"},
		gate{cfg.Method == scenario.MBAC, "is read by -method mbac only", "target"},
		gate{eac, "is read by -method eac only", "policy"},
		gate{probes || cfg.Method == scenario.Passive, "is read by -method passive and " + noProbe, "eps"},
		gate{probes, "is read only " + noProbe, "design prober probe retries"},
		gate{eac && policy == admission.PolicyTokenBucket, "is read by -policy token-bucket only", "policy.bucket-cap policy.bucket-rate"},
		gate{eac && policy == admission.PolicyEpochAdaptive, "is read by -policy epoch-adaptive only", "policy.epoch policy.target-loss"},
	)
}

// runMain is the run subcommand: one scenario, averaged over -seeds.
func runMain(args []string) {
	fs := flag.NewFlagSet("eacsim run", flag.ExitOnError)
	var (
		methodName = fs.String("method", "eac", "admission method: eac, mbac, passive (admit every flow with -policy always-admit)")
		designName = fs.String("design", "drop-in", "endpoint design: drop-in, drop-out, mark-in, mark-out, vdrop-out")
		proberName = fs.String("prober", "slow-start", "probing algorithm: simple, early-reject, slow-start")
		eps        = fs.Float64("eps", 0.01, "acceptance threshold")
		target     = fs.Float64("target", 0.95, "MBAC utilization target")
		source     = fs.String("source", "EXP1", "traffic source: EXP1, EXP2, EXP3, EXP4, POO1, StarWars")
		tau        = fs.Float64("tau", 3.5, "mean flow inter-arrival time, seconds")
		life       = fs.Float64("life", 300, "mean flow lifetime, seconds")
		linkBps    = fs.Float64("link", 10e6, "allocated link share, bits/s")
		duration   = fs.Float64("duration", 14000, "simulated seconds")
		warmup     = fs.Float64("warmup", 2000, "discarded warm-up seconds")
		prepop     = fs.Float64("prepopulate", 0, "seed stationary flows to this utilization (0 = off)")
		seeds      = fs.Int("seeds", 1, "number of seeds to average")

		// Topology (see README "Sharded runs and the MetroStar preset").
		topology = fs.String("topology", "basic", "basic (one congested link) or metro-star (the large star-of-chains preset)")
		chains   = fs.Int("chains", 0, "metro-star: access chains off the hub (0 = preset default 8)")
		hops     = fs.Int("hops", 0, "metro-star: links per chain (0 = preset default 3)")
		hosts    = fs.Int("hosts", 0, "metro-star: target concurrent host population (0 = preset default 10000)")
		shrds    = fs.Int("shards", 1, "partition the run's links into this many domains advanced in parallel (conservative parallel DES; at most one per link, 0 or 1 = serial). Requires -method eac and neither -hybrid nor -obs; sharded runs are statistically equivalent, not byte-identical, to serial ones")
		hybrid   = fs.Bool("hybrid", false, "carry data phases as per-link fluid rates instead of packets (hybrid fluid/packet engine; probes stay packet-level). Orders of magnitude faster at large scale; requires -method eac and the serial path (exclusive with -shards > 1)")
		probeDur = fs.Float64("probe", 5, "total probe duration, seconds")
		useRED   = fs.Bool("red", false, "use a RED queue instead of drop-tail (in-band designs only)")
		retries  = fs.Int("retries", 0, "max admission retries with exponential back-off")

		// Admission policy layer (EAC only; see README "Admission policies").
		policyName = fs.String("policy", "static", "admission policy: static, always-admit, never-admit, token-bucket, epoch-adaptive")
		bucketCap  = fs.Float64("policy.bucket-cap", 0, "token-bucket: capacity in admission tokens (0 = default 10)")
		bucketRate = fs.Float64("policy.bucket-rate", 0, "token-bucket: refill rate, tokens/s (0 = default 0.5)")
		epochN     = fs.Int("policy.epoch", 0, "epoch-adaptive: probes per adaptation epoch (0 = default 50)")
		targetLoss = fs.Float64("policy.target-loss", 0, "epoch-adaptive: post-admission loss setpoint (0 = default 0.01)")

		// Nonstationary load modulation (see README "Temporal workloads").
		loadSched  = fs.String("load.schedule", "", "phase schedule modulating the arrival rate, e.g. 'const:100:1,ramp:60:1:3,spike:30:4,hold'; an on/off square wave is 'const:100:2,const:100:0' (see README)")
		loadReplay = fs.String("load.replay", "", "replay flow arrivals from a recorded obs JSONL event trace instead of drawing them (exclusive with -load.schedule)")

		// Observability: -obs and the flags it shares with figure are in parseCommon.
		perfetto = fs.Bool("perfetto", false, "with -obs, also export each seed's probe-lifecycle spans as Chrome/Perfetto trace-event JSON, eacsim-s<seed>-perfetto.json (open with ui.perfetto.dev; needs -trace-cap > 0)")
	)
	cf := parseCommon(fs, args)

	if *seeds < 1 || *seeds > scenario.MaxSeeds {
		log.Fatalf("-seeds must be in 1..%d, got %d", scenario.MaxSeeds, *seeds)
	}
	// Every name is checked, also where the run would not read the flag.
	if *methodName == "none" {
		log.Fatal(`-method none is gone: admit every flow with -policy always-admit`)
	}
	method, design := lookup("-method", *methodName, methodNames), lookup("-design", *designName, designNames)
	prober, policy := lookup("-prober", *proberName, proberNames), must(admission.ParsePolicyKind(*policyName))
	preset := must(trafgen.Lookup(*source))

	var cfg scenario.Config
	var metro *scenario.MetroStarOptions // nil on the basic topology
	switch *topology {
	case "basic":
		cfg = scenario.Config{
			Classes:         []scenario.ClassSpec{{Preset: preset, Weight: 1, Eps: -1}},
			Links:           []scenario.LinkSpec{{RateBps: *linkBps}},
			InterArrival:    *tau,
			LifetimeSec:     *life,
			PrepopulateUtil: *prepop,
		}
	case "metro-star":
		for i, v := range []int{*chains, *hops, *hosts} {
			if v < 0 {
				log.Fatalf("-%s must be >= 0 (0 = preset default), got %d", []string{"chains", "hops", "hosts"}[i], v)
			}
		}
		metro = &scenario.MetroStarOptions{Chains: *chains, Hops: *hops, Hosts: *hosts}
		cfg = scenario.MetroStar(*metro)
	default:
		log.Fatalf("unknown topology %q (basic, metro-star)", *topology)
	}
	cfg.Duration, cfg.Warmup, cfg.MaxRetries = sim.Seconds(*duration), sim.Seconds(*warmup), *retries
	if *useRED {
		cfg.Queue = scenario.QueueRED
	}
	if *loadSched != "" {
		cfg.Schedule = must(scenario.ParseSchedule(*loadSched))
	}
	if *loadReplay != "" {
		tr := must(scenario.LoadReplay(*loadReplay))
		if tr.Len() == 0 {
			log.Fatalf("-load.replay: no arrival events in %s (was the trace recorded with -obs and a large enough -trace-cap?)", *loadReplay)
		}
		cfg.Replay = tr
	}
	// A flag the run does not read holds its default: runReads rejects it.
	cfg.Method, cfg.MS.Target = method, *target
	cfg.AC = admission.Config{Design: design, Kind: prober, Eps: *eps, ProbeDur: sim.Seconds(*probeDur)}
	cfg.Policy = admission.PolicyConfig{Kind: policy, BucketCap: *bucketCap, BucketRate: *bucketRate, Epoch: *epochN, TargetLoss: *targetLoss}
	cfg.Obs = cf.obsConfig("eacsim", *perfetto)
	reads := runReads(cfg, metro == nil)
	reads.check(fs)
	cfg.Hybrid.Enabled, cfg.Shards = *hybrid, *shrds
	store, workers := cf.start()
	cfg.Cache = store
	if store != nil && cfg.Obs.Enabled {
		log.Print("result cache: bypassed while observability is active (artifacts cannot come from a cache)")
	}

	seedVals := scenario.DefaultSeeds(*seeds)
	start := time.Now()
	mm, recs, err := scenario.RunSeedsObserved(cfg, seedVals, workers)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	m := mm.Mean
	// What is printed and filed from here on is the domain count the run
	// executed: -shards after the link-count clamp.
	cfg.Shards = recs[0].Shards

	if cfg.Obs.Enabled {
		var snap *cache.Snapshot
		if store != nil {
			snap = &cache.Snapshot{Dir: store.Dir(), Stats: store.Stats(), Bypassed: "obs active"}
		}
		man := newManifest(workers, seedVals, wall, manifestConfig(cfg, *source, metro, reads), map[string]any{
			"utilization": m.Utilization, "util_stderr": mm.UtilStderr,
			"loss": m.DataLossProb, "loss_stderr": mm.LossStderr,
			"blocking": m.BlockingProb, "decided": m.Decided,
			"probe_share": m.ProbeShare,
		}, snap)
		for _, r := range recs {
			r.AddTo(&man)
		}
		fatal(man.Write(cfg.Obs.ManifestPath()))
		log.Printf("observability: wrote %s and %d artifact(s) under %s",
			cfg.Obs.ManifestPath(), len(man.Artifacts), cfg.Obs.Dir)
	}
	where := cfg.Name
	if reads.reads("source") {
		where = *source
		if reads.reads("tau") {
			where += fmt.Sprintf(" tau=%.2gs", *tau)
		}
		where += fmt.Sprintf(" link=%.3gMb/s", *linkBps/1e6)
	}
	fmt.Printf("scenario : %s %s duration=%.0fs x %d seed(s)\n", *methodName, where, *duration, *seeds)
	if cfg.Shards > 1 {
		fmt.Printf("shards   : %d (conservative windowed parallel DES; statistically equivalent to serial)\n", cfg.Shards)
	}
	if cfg.Hybrid.Active() {
		fmt.Println("hybrid   : fluid data plane, packet probes")
	}
	if reads.reads("design") {
		fmt.Printf("design   : %s, %s probing, eps=%.3g\n", cfg.AC.Design, cfg.AC.Kind, *eps)
	}
	if reads.reads("policy") && cfg.Policy.Kind != admission.PolicyStatic {
		fmt.Printf("policy   : %s\n", cfg.Policy.Kind)
	}
	if cfg.Schedule.Active() {
		fmt.Printf("load     : schedule %s (peak %.3gx)\n", cfg.Schedule, cfg.Schedule.Peak())
	}
	if cfg.Replay != nil {
		fmt.Printf("load     : replaying %d arrivals from %s\n", cfg.Replay.Len(), cfg.Replay.Source())
	}
	fmt.Printf("util     : %.4f (+/- %.4f across seeds)\n", m.Utilization, mm.UtilStderr)
	fmt.Printf("loss     : %.3e (+/- %.1e)\n", m.DataLossProb, mm.LossStderr)
	fmt.Printf("blocking : %.4f over %d decided flows\n", m.BlockingProb, m.Decided)
	fmt.Printf("probes   : %.4f of the allocated share\n", m.ProbeShare)
	if store != nil {
		log.Printf("result cache: %s (%s)", store.Stats(), store.Dir())
	}
	for _, cm := range m.Classes {
		if len(m.Classes) > 1 {
			fmt.Printf("  class %-10s blocking=%.4f loss=%.3e\n", cm.Name, cm.BlockingProb(), cm.LossProb())
		}
	}
}
