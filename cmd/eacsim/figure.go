package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eac/internal/cache"
	"eac/internal/experiments"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// figureMain is the figure subcommand: it regenerates the paper's tables
// and figures, printing each table and, when -out is set, writing
// <out>/<id>.csv and its <out>/<id>.manifest.json run record.
func figureMain(args []string) {
	fs := flag.NewFlagSet("eacsim figure", flag.ExitOnError)
	var (
		run      = fs.String("run", "", "comma-separated experiment ids (default: all)")
		paper    = fs.Bool("paper", false, "publication-scale runs (14000 s x 7 seeds; hours of CPU)")
		seeds    = fs.Int("seeds", 0, "override seed count")
		duration = fs.Float64("duration", 0, "override run length, seconds")
		warmup   = fs.Float64("warmup", 0, "override warm-up, seconds")
		outDir   = fs.String("out", "results", "directory for CSV output and manifests (empty = no files)")
		verbose  = fs.Bool("v", false, "log every completed run")
		list     = fs.Bool("list", false, "list experiment ids and exit")

		cacheClear = fs.Bool("cache-clear", false, "delete every entry in the result cache and exit")

		// Observability (see EXPERIMENTS.md "Observability").
		eta       = fs.Bool("eta", false, "report live progress and ETA on stderr")
		mInterval = fs.Float64("metrics-interval", 0, "per-run queue telemetry sampling interval, simulated seconds (0 = off)")
		traceDir  = fs.String("trace-out", "", "directory for per-run JSONL event traces (implies telemetry)")
	)
	cf := bindCommon(fs)
	parse(fs, args)

	if *seeds < 0 || *seeds > scenario.MaxSeeds {
		log.Fatalf("-seeds must be in 0..%d (0 = mode default), got %d", scenario.MaxSeeds, *seeds)
	}
	if *list {
		for _, ex := range experiments.All() {
			fmt.Printf("%-10s %s\n", ex.ID, ex.Title)
		}
		return
	}

	store, workers := cf.start(*cacheClear)
	if *cacheClear {
		entries, bytes := store.Len()
		if err := store.Clear(); err != nil {
			log.Fatal(err)
		}
		log.Printf("result cache cleared: %d entries, %d bytes (%s)", entries, bytes, store.Dir())
		return
	}

	opts := experiments.Quick()
	if *paper {
		opts = experiments.Paper()
	}
	opts.Seeds = *seeds
	opts.Duration = sim.Seconds(*duration)
	opts.Warmup = sim.Seconds(*warmup)
	opts.Workers = workers
	opts.Cache = store
	if *verbose {
		opts.Progress = func(format string, args ...any) { log.Printf(format, args...) }
	}
	if *eta {
		opts.ETA = func(done, total int, elapsed time.Duration) {
			rem := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			fmt.Fprintf(os.Stderr, "\r%d/%d runs (%3.0f%%) elapsed %s eta %s ",
				done, total, 100*float64(done)/float64(total),
				elapsed.Round(time.Second), rem.Round(time.Second))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if *mInterval > 0 || *traceDir != "" {
		dir := *traceDir
		if dir == "" {
			dir = filepath.Join(*outDir, "obs")
		}
		opts.Obs = obs.Config{
			Enabled:         true,
			Dir:             dir,
			MetricsInterval: sim.Seconds(*mInterval),
			TraceCapacity:   cf.traceCap,
		}
		if *traceDir == "" {
			opts.Obs.TraceCapacity = 0 // telemetry only; no traces requested
		}
	}

	var todo []experiments.Experiment
	if *run == "" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			todo = append(todo, must(experiments.Lookup(strings.TrimSpace(id))))
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, ex := range todo {
		start := time.Now()
		var statsBefore cache.Stats
		if store != nil {
			statsBefore = store.Stats()
		}
		tbl, err := ex.Run(opts)
		if err != nil {
			log.Fatalf("%s: %v", ex.ID, err)
		}
		fmt.Println(tbl.String())
		wall := time.Since(start)
		log.Printf("%s finished in %.1fs (%d workers)", ex.ID, wall.Seconds(), workers)
		var snap *cache.Snapshot
		if store != nil {
			snap = &cache.Snapshot{Dir: store.Dir(), Stats: store.Stats().Sub(statsBefore)}
			if opts.Obs.Enabled {
				snap.Bypassed = "obs active"
			}
			log.Printf("cache %-10s %s", ex.ID, snap.Stats)
		}
		if *outDir == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(*outDir, ex.ID+".csv"), []byte(tbl.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
		man := newManifest(workers, must(opts.SeedValues()), wall, map[string]any{
			"experiment": ex.ID, "title": ex.Title,
			"quick":      !*paper,
			"duration_s": opts.RunDuration().Sec(),
			"warmup_s":   opts.RunWarmup().Sec(),
		}, map[string]any{"rows": len(tbl.Rows)}, snap)
		man.Artifacts = []string{ex.ID + ".csv"}
		if err := man.Write(filepath.Join(*outDir, ex.ID+".manifest.json")); err != nil {
			log.Fatal(err)
		}
	}
	if store != nil {
		log.Printf("result cache: %s (%s)", store.Stats(), store.Dir())
	}
}
