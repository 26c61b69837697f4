// Command experiments regenerates the paper's tables and figures. By
// default it runs every experiment in quick mode, printing each table and
// writing CSV files under -out.
//
// Examples:
//
//	experiments                     # all experiments, quick mode
//	experiments -run figure2        # one experiment
//	experiments -paper -seeds 7     # full publication scale (hours)
//	experiments -cache              # serve repeated runs from the result cache
//	experiments -cache-clear        # wipe the result cache and exit
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
	"strings"
	"time"

	"eac/internal/cache"
	"eac/internal/experiments"
	"eac/internal/obs"
	"eac/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run      = flag.String("run", "", "comma-separated experiment ids (default: all)")
		paper    = flag.Bool("paper", false, "publication-scale runs (14000 s x 7 seeds; hours of CPU)")
		seeds    = flag.Int("seeds", 0, "override seed count")
		duration = flag.Float64("duration", 0, "override run length, seconds")
		warmup   = flag.Float64("warmup", 0, "override warm-up, seconds")
		workers  = flag.Int("workers", 0, "parallel simulator runs (0 = one per core); results are identical for any value")
		outDir   = flag.String("out", "results", "directory for CSV output (empty = no files)")
		verbose  = flag.Bool("v", false, "log every completed run")
		list     = flag.Bool("list", false, "list experiment ids and exit")

		// Result cache (see README "Result cache").
		useCache   = flag.Bool("cache", false, "serve repeated runs from the content-addressed result cache")
		cacheDir   = flag.String("cache-dir", "", "result cache directory (implies -cache; default $EAC_CACHE_DIR or the user cache dir)")
		cacheClear = flag.Bool("cache-clear", false, "delete every entry in the result cache and exit")
		cacheStats = flag.Bool("cache.stats", false, "print per-experiment cache hit/miss counts at exit")

		// Observability and profiling (see EXPERIMENTS.md "Observability").
		eta       = flag.Bool("eta", false, "report live progress and ETA on stderr")
		manifest  = flag.Bool("manifest", true, "write a <out>/<id>.manifest.json run record per experiment")
		mInterval = flag.Float64("metrics-interval", 0, "per-run queue telemetry sampling interval, simulated seconds (0 = off)")
		traceDir  = flag.String("trace-out", "", "directory for per-run JSONL event traces (implies telemetry)")
		traceCap  = flag.Int("trace-cap", 1<<16, "event trace ring capacity per run")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *seeds < 0 {
		log.Fatalf("-seeds must be >= 0 (0 = mode default), got %d", *seeds)
	}
	if *pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	if *list {
		for _, ex := range experiments.All() {
			fmt.Printf("%-10s %s\n", ex.ID, ex.Title)
		}
		return
	}

	var store *cache.Store
	if *useCache || *cacheDir != "" || *cacheClear || *cacheStats {
		var err error
		if store, err = cache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
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
	opts.Workers = *workers
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
			TraceCapacity:   *traceCap,
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
			ex, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				log.Fatal(err)
			}
			todo = append(todo, ex)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	perExperiment := make(map[string]cache.Stats, len(todo))
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
		if store != nil {
			perExperiment[ex.ID] = store.Stats().Sub(statsBefore)
		}
		fmt.Println(tbl.String())
		w := *workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		wall := time.Since(start)
		log.Printf("%s finished in %.1fs (%d workers)", ex.ID, wall.Seconds(), w)
		if *outDir != "" {
			path := filepath.Join(*outDir, ex.ID+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				log.Fatal(err)
			}
			if *manifest {
				man := obs.NewManifest()
				man.Workers = w
				if man.Seeds, err = opts.SeedValues(); err != nil {
					log.Fatal(err)
				}
				man.WallSeconds = wall.Seconds()
				man.Config = map[string]any{
					"experiment": ex.ID, "title": ex.Title,
					"quick":      !*paper,
					"duration_s": opts.RunDuration().Sec(),
					"warmup_s":   opts.RunWarmup().Sec(),
				}
				man.Summary = map[string]any{"rows": len(tbl.Rows)}
				man.Artifacts = []string{ex.ID + ".csv"}
				if store != nil {
					snap := &cache.Snapshot{Dir: store.Dir(), Stats: perExperiment[ex.ID]}
					if opts.Obs.Active() {
						snap.Bypassed = "obs active"
					}
					man.Cache = snap
				}
				mp := filepath.Join(*outDir, ex.ID+".manifest.json")
				if err := man.Write(mp); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if store != nil {
		if *cacheStats {
			for _, ex := range todo {
				log.Printf("cache %-10s %s", ex.ID, perExperiment[ex.ID])
			}
		}
		log.Printf("result cache: %s (%s)", store.Stats(), store.Dir())
	}
}
