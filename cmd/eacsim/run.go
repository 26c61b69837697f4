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
	"eac/internal/obs"
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
		topology = fs.String("topology", "basic", "basic (one congested link) or metro-star (the large star-of-chains preset; -source/-tau/-life/-link/-prepopulate are derived from -hosts and ignored)")
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

		// Observability (see README "Observability").
		obsDir    = fs.String("obs", "", "write observability artifacts under this directory: the run manifest and, per seed, eacsim-s<seed>-<kind> (series.csv, trace.jsonl, spans.jsonl, hist.json)")
		mInterval = fs.Float64("metrics-interval", 1, "queue telemetry sampling interval, simulated seconds (0 disables the time series)")
		perfetto  = fs.Bool("perfetto", false, "with -obs, also export each seed's probe-lifecycle spans as Chrome/Perfetto trace-event JSON, eacsim-s<seed>-perfetto.json (open with ui.perfetto.dev; needs -trace-cap > 0)")
	)
	cf := bindCommon(fs)
	parse(fs, args)

	if *seeds < 1 || *seeds > scenario.MaxSeeds {
		log.Fatalf("-seeds must be in 1..%d, got %d", scenario.MaxSeeds, *seeds)
	}
	if *perfetto && *obsDir == "" {
		log.Fatal("-perfetto writes beside the other artifacts: it needs -obs DIR")
	}
	// Every name is checked whatever the method and topology: a misspelt
	// name is an error even where the run would ignore the flag.
	if *methodName == "none" {
		log.Fatal(`-method none is gone: admit every flow with -policy always-admit`)
	}
	method := lookup("-method", *methodName, methodNames)
	design := lookup("-design", *designName, designNames)
	prober := lookup("-prober", *proberName, proberNames)
	policy := must(admission.ParsePolicyKind(*policyName))
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
		for _, f := range []struct {
			name string
			v    int
		}{{"-chains", *chains}, {"-hops", *hops}, {"-hosts", *hosts}} {
			if f.v < 0 {
				log.Fatalf("%s must be >= 0 (0 = preset default), got %d", f.name, f.v)
			}
		}
		metro = &scenario.MetroStarOptions{Chains: *chains, Hops: *hops, Hosts: *hosts}
		cfg = scenario.MetroStar(*metro)
	default:
		log.Fatalf("unknown topology %q (basic, metro-star)", *topology)
	}
	cfg.Duration = sim.Seconds(*duration)
	cfg.Warmup = sim.Seconds(*warmup)
	cfg.MaxRetries = *retries
	if *useRED {
		cfg.Queue = scenario.QueueRED
	}
	if *loadSched != "" {
		cfg.Schedule = must(scenario.ParseSchedule(*loadSched))
	}
	if *loadReplay != "" {
		if *loadSched != "" {
			log.Fatal("-load.replay and -load.schedule are mutually exclusive")
		}
		tr := must(scenario.LoadReplay(*loadReplay))
		if tr.Len() == 0 {
			log.Fatalf("-load.replay: no arrival events in %s (was the trace recorded with -obs and a large enough -trace-cap?)", *loadReplay)
		}
		cfg.Replay = tr
	}
	cfg.Method = method
	switch method {
	case scenario.EAC:
		cfg.AC = admission.Config{Design: design, Kind: prober, Eps: *eps, ProbeDur: sim.Seconds(*probeDur)}
		cfg.Policy = admission.PolicyConfig{
			Kind:      policy,
			BucketCap: *bucketCap, BucketRate: *bucketRate,
			Epoch: *epochN, TargetLoss: *targetLoss,
		}
	case scenario.MBAC:
		cfg.MS.Target = *target
	case scenario.Passive:
		cfg.AC.Eps = *eps
	}
	store, workers := cf.start(false)

	if *obsDir != "" {
		cfg.Obs = obs.Config{
			Enabled:         true,
			Dir:             *obsDir,
			Label:           "eacsim",
			MetricsInterval: sim.Seconds(*mInterval),
			TraceCapacity:   cf.traceCap,
			Perfetto:        *perfetto,
		}
	}
	if store != nil {
		cfg.Cache = store
		if cfg.Obs.Enabled {
			log.Print("result cache: bypassed while observability is active (artifacts cannot come from a cache)")
		}
	}

	cfg.Hybrid.Enabled = *hybrid
	cfg.Shards = *shrds

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

	if *obsDir != "" {
		var snap *cache.Snapshot
		if store != nil {
			snap = &cache.Snapshot{Dir: store.Dir(), Stats: store.Stats(), Bypassed: "obs active"}
		}
		man := newManifest(workers, seedVals, wall, manifestConfig(cfg, *source, metro), map[string]any{
			"utilization": m.Utilization, "util_stderr": mm.UtilStderr,
			"loss": m.DataLossProb, "loss_stderr": mm.LossStderr,
			"blocking": m.BlockingProb, "decided": m.Decided,
			"probe_share": m.ProbeShare,
		}, snap)
		for _, r := range recs {
			r.AddTo(&man)
		}
		if err := man.Write(cfg.Obs.ManifestPath()); err != nil {
			log.Fatal(err)
		}
		log.Printf("observability: wrote %s and %d artifact(s) under %s",
			cfg.Obs.ManifestPath(), len(man.Artifacts), *obsDir)
	}
	if *topology == "metro-star" {
		fmt.Printf("scenario : %s %s duration=%.0fs x %d seed(s)\n",
			*methodName, cfg.Name, *duration, *seeds)
	} else {
		fmt.Printf("scenario : %s %s tau=%.2gs link=%.3gMb/s duration=%.0fs x %d seed(s)\n",
			*methodName, *source, *tau, *linkBps/1e6, *duration, *seeds)
	}
	if cfg.Shards > 1 {
		fmt.Printf("shards   : %d (conservative windowed parallel DES; statistically equivalent to serial)\n", cfg.Shards)
	}
	if cfg.Hybrid.Active() {
		fmt.Println("hybrid   : fluid data plane, packet probes")
	}
	if cfg.Method == scenario.EAC {
		fmt.Printf("design   : %s, %s probing, eps=%.3g\n", cfg.AC.Design, cfg.AC.Kind, *eps)
		if cfg.Policy.Kind != admission.PolicyStatic {
			fmt.Printf("policy   : %s\n", cfg.Policy.Kind)
		}
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
