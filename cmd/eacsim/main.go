// Command eacsim runs one endpoint-admission-control scenario and prints
// the paper's metrics: utilization of the allocated share, data packet
// loss probability, and flow blocking probability.
//
// Examples:
//
//	eacsim -design drop-in -prober slow-start -eps 0.01
//	eacsim -method mbac -target 0.95 -tau 1.0 -duration 14000
//	eacsim -source StarWars -tau 8 -design mark-out -eps 0.05 -seeds 3
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// designNames is the -design vocabulary.
var designNames = map[string]admission.Design{
	"drop-in": admission.DropInBand, "drop-out": admission.DropOutOfBand,
	"mark-in": admission.MarkInBand, "mark-out": admission.MarkOutOfBand,
	"vdrop-out": admission.VDropOutOfBand,
}

func parseDesign(s string) (admission.Design, error) {
	if d, ok := designNames[s]; ok {
		return d, nil
	}
	return admission.Design{}, fmt.Errorf("unknown design %q (drop-in, drop-out, mark-in, mark-out, vdrop-out)", s)
}

func parseProber(s string) (admission.ProberKind, error) {
	switch s {
	case "simple":
		return admission.Simple, nil
	case "early-reject":
		return admission.EarlyReject, nil
	case "slow-start":
		return admission.SlowStart, nil
	}
	return 0, fmt.Errorf("unknown prober %q (simple, early-reject, slow-start)", s)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("eacsim: ")

	var (
		method   = flag.String("method", "eac", "admission method: eac, mbac, passive, none")
		design   = flag.String("design", "drop-in", "endpoint design: drop-in, drop-out, mark-in, mark-out, vdrop-out")
		prober   = flag.String("prober", "slow-start", "probing algorithm: simple, early-reject, slow-start")
		eps      = flag.Float64("eps", 0.01, "acceptance threshold")
		target   = flag.Float64("target", 0.95, "MBAC utilization target")
		source   = flag.String("source", "EXP1", "traffic source: EXP1, EXP2, EXP3, EXP4, POO1, StarWars")
		tau      = flag.Float64("tau", 3.5, "mean flow inter-arrival time, seconds")
		life     = flag.Float64("life", 300, "mean flow lifetime, seconds")
		linkBps  = flag.Float64("link", 10e6, "allocated link share, bits/s")
		duration = flag.Float64("duration", 14000, "simulated seconds")
		warmup   = flag.Float64("warmup", 2000, "discarded warm-up seconds")
		prepop   = flag.Float64("prepopulate", 0, "seed stationary flows to this utilization (0 = off)")
		seeds    = flag.Int("seeds", 1, "number of seeds to average")
		workers  = flag.Int("workers", 0, "parallel seed runs (0 = one per core); results are identical for any value")

		// Topology (see README "Sharded runs and the MetroStar preset").
		topology = flag.String("topology", "basic", "basic (one congested link) or metro-star (the large star-of-chains preset; -source/-tau/-life/-link/-prepopulate are derived from -hosts and ignored)")
		chains   = flag.Int("chains", 0, "metro-star: access chains off the hub (0 = preset default 8)")
		hops     = flag.Int("hops", 0, "metro-star: links per chain (0 = preset default 3)")
		hosts    = flag.Int("hosts", 0, "metro-star: target concurrent host population (0 = preset default 10000)")
		shrds    = flag.Int("shards", 1, "partition the run's links into this many domains advanced in parallel (conservative parallel DES; at most one per link, 0 or 1 = serial). Requires -method eac or none and no -hybrid; sharded runs are statistically equivalent, not byte-identical, to serial ones")
		hybrid   = flag.Bool("hybrid", false, "carry data phases as per-link fluid rates instead of packets (hybrid fluid/packet engine; probes stay packet-level). Orders of magnitude faster at large scale; requires -method eac or none and the serial path (exclusive with -shards > 1)")
		probeDur = flag.Float64("probe", 5, "total probe duration, seconds")
		useRED   = flag.Bool("red", false, "use a RED queue instead of drop-tail (in-band designs only)")
		retries  = flag.Int("retries", 0, "max admission retries with exponential back-off")

		// Admission policy layer (EAC only; see README "Admission policies").
		policy     = flag.String("policy", "static", "admission policy: static, always-admit, never-admit, token-bucket, epoch-adaptive")
		bucketCap  = flag.Float64("policy.bucket-cap", 0, "token-bucket: capacity in admission tokens (0 = default 10)")
		bucketRate = flag.Float64("policy.bucket-rate", 0, "token-bucket: refill rate, tokens/s (0 = default 0.5)")
		epochN     = flag.Int("policy.epoch", 0, "epoch-adaptive: probes per adaptation epoch (0 = default 50)")
		targetLoss = flag.Float64("policy.target-loss", 0, "epoch-adaptive: post-admission loss setpoint (0 = default 0.01)")

		// Nonstationary load modulation (see README "Temporal workloads").
		loadSched  = flag.String("load.schedule", "", "phase schedule modulating the arrival rate, e.g. 'const:100:1,ramp:60:1:3,spike:30:4,hold'; an on/off square wave is 'const:100:2,const:100:0' (see README)")
		loadReplay = flag.String("load.replay", "", "replay flow arrivals from a recorded obs JSONL event trace instead of drawing them (exclusive with -load.schedule)")

		// Result cache (see README "Result cache").
		useCache = flag.Bool("cache", false, "serve repeated runs from the content-addressed result cache")
		cacheDir = flag.String("cache-dir", "", "result cache directory (implies -cache; default $EAC_CACHE_DIR or the user cache dir)")

		// Observability and profiling (see README "Observability").
		obsDir    = flag.String("obs", "", "write observability artifacts (run manifest, per-queue time-series CSVs, JSONL event traces) under this directory")
		mInterval = flag.Float64("metrics-interval", 1, "queue telemetry sampling interval, simulated seconds (0 disables the time series)")
		traceOut  = flag.String("trace-out", "", "JSONL event trace path (default <obs>/eacsim-s<seed>-trace.jsonl; implies -obs in the file's directory; single seed only)")
		perfetto  = flag.String("trace-perfetto", "", "Chrome/Perfetto trace-event JSON export path for the probe-lifecycle spans (open with ui.perfetto.dev; implies -obs in the file's directory; single seed only)")
		traceCap  = flag.Int("trace-cap", 1<<16, "event trace ring capacity; the oldest events are discarded beyond this")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *seeds < 1 {
		log.Fatalf("-seeds must be >= 1, got %d", *seeds)
	}
	if *pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	var cfg scenario.Config
	var metro *scenario.MetroStarOptions // nil on the basic topology
	switch *topology {
	case "basic":
		preset, err := trafgen.Lookup(*source)
		if err != nil {
			log.Fatal(err)
		}
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
		s, err := scenario.ParseSchedule(*loadSched)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Schedule = s
	}
	if *loadReplay != "" {
		if *loadSched != "" {
			log.Fatal("-load.replay and -load.schedule are mutually exclusive")
		}
		tr, err := scenario.LoadReplay(*loadReplay)
		if err != nil {
			log.Fatal(err)
		}
		if tr.Len() == 0 {
			log.Fatalf("-load.replay: no arrival events in %s (was the trace recorded with -obs and a large enough -trace-cap?)", *loadReplay)
		}
		cfg.Replay = tr
	}
	switch *method {
	case "eac":
		d, err := parseDesign(*design)
		if err != nil {
			log.Fatal(err)
		}
		k, err := parseProber(*prober)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Method = scenario.EAC
		cfg.AC = admission.Config{Design: d, Kind: k, Eps: *eps, ProbeDur: sim.Seconds(*probeDur)}
		pk, err := admission.ParsePolicyKind(*policy)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Policy = admission.PolicyConfig{
			Kind:      pk,
			BucketCap: *bucketCap, BucketRate: *bucketRate,
			Epoch: *epochN, TargetLoss: *targetLoss,
		}
	case "mbac":
		cfg.Method = scenario.MBAC
		cfg.MS.Target = *target
	case "passive":
		cfg.Method = scenario.Passive
		cfg.AC.Eps = *eps
	case "none":
		cfg.Method = scenario.None
	default:
		log.Fatalf("unknown method %q", *method)
	}

	for _, f := range []struct{ flag, path string }{
		{"-trace-out", *traceOut}, {"-trace-perfetto", *perfetto},
	} {
		if f.path == "" {
			continue
		}
		if *seeds > 1 {
			log.Fatalf("%s names a single file; use -seeds 1 or -obs DIR for per-seed traces", f.flag)
		}
		if *obsDir == "" {
			// Trace-only invocation: keep the manifest and series next to
			// the requested trace file instead of littering the cwd.
			*obsDir = filepath.Dir(f.path)
		}
	}
	if *obsDir != "" {
		cfg.Obs = obs.Config{
			Enabled:         true,
			Dir:             *obsDir,
			Label:           "eacsim",
			MetricsInterval: sim.Seconds(*mInterval),
			TraceCapacity:   *traceCap,
			TracePath:       *traceOut,
			PerfettoPath:    *perfetto,
		}
	}

	var store *cache.Store
	if *useCache || *cacheDir != "" {
		var err error
		if store, err = cache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		cfg.Cache = store
		if cfg.Obs.Enabled {
			log.Print("result cache: bypassed while observability is active (artifacts cannot come from a cache)")
		}
	}

	cfg.Hybrid.Enabled = *hybrid
	cfg.Shards = *shrds

	seedVals := scenario.DefaultSeeds(*seeds)
	start := time.Now()
	mm, recs, err := scenario.RunSeedsObserved(cfg, seedVals, *workers)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	m := mm.Mean
	// What is printed and filed from here on is the domain count the run
	// executed: -shards after the link-count clamp.
	cfg.Shards = recs[0].Shards

	if *obsDir != "" {
		man := obs.NewManifest()
		man.Workers = *workers
		if man.Workers <= 0 {
			man.Workers = runtime.GOMAXPROCS(0)
		}
		man.Seeds = seedVals
		man.WallSeconds = wall.Seconds()
		man.Config = manifestConfig(cfg, *source, metro)
		man.Summary = map[string]any{
			"utilization": m.Utilization, "util_stderr": mm.UtilStderr,
			"loss": m.DataLossProb, "loss_stderr": mm.LossStderr,
			"blocking": m.BlockingProb, "decided": m.Decided,
			"probe_share": m.ProbeShare,
		}
		if cfg.Shards > 1 {
			man.Shards = cfg.Shards
		}
		for _, r := range recs {
			r.AddTo(&man)
		}
		if store != nil {
			man.Cache = &cache.Snapshot{Dir: store.Dir(), Stats: store.Stats(),
				Bypassed: "obs active"}
		}
		if err := man.Write(cfg.Obs.ManifestPath()); err != nil {
			log.Fatal(err)
		}
		log.Printf("observability: wrote %s and %d artifact(s) under %s",
			cfg.Obs.ManifestPath(), len(man.Artifacts), *obsDir)
	}
	if *topology == "metro-star" {
		fmt.Printf("scenario : %s %s duration=%.0fs x %d seed(s)\n",
			*method, cfg.Name, *duration, *seeds)
	} else {
		fmt.Printf("scenario : %s %s tau=%.2gs link=%.3gMb/s duration=%.0fs x %d seed(s)\n",
			*method, *source, *tau, *linkBps/1e6, *duration, *seeds)
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
	os.Exit(0)
}
