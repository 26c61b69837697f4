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
		eta      = fs.Bool("eta", false, "report live progress and ETA on stderr")

		cacheClear = fs.Bool("cache-clear", false, "delete every entry in the result cache and exit")
	)
	cf := parseCommon(fs, args)
	reader(func(flag string) string {
		switch {
		case (flag == "metrics-interval" || flag == "trace-cap") && cf.obsDir == "":
			return needsObs
		case *list && flag != "list":
			return "is not read with -list: it prints the experiment ids and exits"
		case *cacheClear && flag != "cache-clear" && flag != "cache-dir":
			return "is not read with -cache-clear: it empties the result cache and exits"
		}
		return ""
	}).check(fs)

	if *seeds < 0 || *seeds > scenario.MaxSeeds {
		log.Fatalf("-seeds must be in 0..%d (0 = mode default), got %d", scenario.MaxSeeds, *seeds)
	}
	if *list {
		for _, ex := range experiments.All() {
			fmt.Printf("%-10s %s\n", ex.ID, ex.Title)
		}
		return
	}

	if *cacheClear {
		store := must(cache.Open(cf.cacheDir))
		entries, bytes := store.Len()
		fatal(store.Clear())
		log.Printf("result cache cleared: %d entries, %d bytes (%s)", entries, bytes, store.Dir())
		return
	}

	store, workers := cf.start()
	opts := experiments.Quick()
	if *paper {
		opts = experiments.Paper()
	}
	opts.Seeds, opts.Duration, opts.Warmup = *seeds, sim.Seconds(*duration), sim.Seconds(*warmup)
	opts.Workers, opts.Cache, opts.Obs = workers, store, cf.obsConfig("", false)
	if *verbose {
		opts.Progress = log.Printf
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

	todo := experiments.All()
	if *run != "" {
		todo = nil
		for _, id := range strings.Split(*run, ",") {
			todo = append(todo, must(experiments.Lookup(strings.TrimSpace(id))))
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
		fatal(os.MkdirAll(*outDir, 0o755))
		fatal(os.WriteFile(filepath.Join(*outDir, ex.ID+".csv"), []byte(tbl.CSV()), 0o644))
		man := newManifest(workers, must(opts.SeedValues()), wall, map[string]any{
			"experiment": ex.ID, "title": ex.Title,
			"quick":      !*paper,
			"duration_s": opts.RunDuration().Sec(),
			"warmup_s":   opts.RunWarmup().Sec(),
		}, map[string]any{"rows": len(tbl.Rows)}, snap)
		man.Artifacts = []string{ex.ID + ".csv"}
		fatal(man.Write(filepath.Join(*outDir, ex.ID+".manifest.json")))
	}
	if store != nil {
		log.Printf("result cache: %s (%s)", store.Stats(), store.Dir())
	}
}
