// Command eacsim is the simulator's command line, with two subcommands:
//
//	eacsim [run] [flags]   one scenario: the paper's metrics (utilization of
//	                       the allocated share, data loss, flow blocking)
//	eacsim figure [flags]  the paper's tables and figures (default: all, in
//	                       quick mode), printed and written as CSV under -out
//
// Examples:
//
//	eacsim -design drop-in -prober slow-start -eps 0.01
//	eacsim -method mbac -target 0.95 -tau 1.0 -duration 14000
//	eacsim -source StarWars -tau 8 -design mark-out -eps 0.05 -seeds 3
//	eacsim figure                     # all experiments, quick mode
//	eacsim figure -run figure2        # one experiment
//	eacsim figure -paper -seeds 7     # full publication scale (hours)
//	eacsim figure -cache              # serve repeated runs from the result cache
//	eacsim figure -cache-clear        # wipe the result cache and exit
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"eac/internal/cache"
	"eac/internal/obs"
	"eac/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eacsim: ")
	args := os.Args[1:]
	sub := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	switch sub {
	case "run":
		runMain(args)
	case "figure":
		figureMain(args)
	default:
		log.Fatalf("unknown subcommand %q (run, figure)", sub)
	}
}

// common holds the flags both subcommands declare with one meaning and
// one default.
type common struct {
	workers   int
	useCache  bool
	cacheDir  string
	obsDir    string
	mInterval float64
	traceCap  int
	pprof     string
}

func bindCommon(fs *flag.FlagSet) *common {
	c := &common{}
	fs.IntVar(&c.workers, "workers", 0, "parallel simulator runs (0 = one per core); results are identical for any value")
	// Result cache (see README "Result cache").
	fs.BoolVar(&c.useCache, "cache", false, "serve repeated runs from the content-addressed result cache")
	fs.StringVar(&c.cacheDir, "cache-dir", "", "result cache directory (implies -cache; default $EAC_CACHE_DIR or the user cache dir)")
	// Observability and profiling (see EXPERIMENTS.md "Observability").
	fs.StringVar(&c.obsDir, "obs", "", "write observability artifacts under this directory: per run <label>-s<seed>-<kind> (series.csv, trace.jsonl, spans.jsonl, hist.json), labelled eacsim by run (beside eacsim-manifest.json) and by sweep point by figure")
	fs.Float64Var(&c.mInterval, "metrics-interval", 1, "with -obs, queue telemetry sampling interval, simulated seconds (0 disables the time series)")
	fs.IntVar(&c.traceCap, "trace-cap", 1<<16, "with -obs, event trace ring capacity per run; the oldest events are discarded beyond this")
	fs.StringVar(&c.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return c
}

// parse parses args into fs. A word left after the flags is a typo (a
// subcommand written after run's flags, say), never input to ignore.
func parse(fs *flag.FlagSet, args []string) {
	fs.Parse(args) // flag.ExitOnError: a bad flag has already exited
	if fs.NArg() > 0 {
		log.Fatalf("unexpected argument %q (flags go after the subcommand: eacsim [run|figure] -flag ...)", fs.Arg(0))
	}
}

// rejectSet ends the command if fs was given any of the named flags: the
// run would ignore it, and a flag that does nothing is an error.
func rejectSet(fs *flag.FlagSet, why string, names ...string) {
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			log.Fatalf("-%s %s", f.Name, why)
		}
	})
}

// obsConfig is the observability config the flags ask for, with artifacts
// named by label (empty: by sweep point) and perfetto from run's -perfetto.
// Without -obs it is disabled, and -metrics-interval, -trace-cap or
// -perfetto set on their own is an error.
func (c *common) obsConfig(fs *flag.FlagSet, label string, perfetto bool) (off obs.Config) {
	if c.obsDir == "" {
		rejectSet(fs, "needs -obs DIR: no artifacts are written without it", "metrics-interval", "trace-cap", "perfetto")
		return off
	}
	return obs.Config{Enabled: true, Dir: c.obsDir, Label: label,
		MetricsInterval: sim.Seconds(c.mInterval), TraceCapacity: c.traceCap, Perfetto: perfetto}
}

// start serves pprof, checks -workers and opens the result cache when
// -cache or -cache-dir asks for it, or when open does. It returns the
// store (nil when none is open) and the worker count, 0 resolved to one
// per core.
func (c *common) start(open bool) (*cache.Store, int) {
	if c.workers < 0 {
		log.Fatalf("-workers must be >= 0 (0 = one per core), got %d", c.workers)
	}
	if c.pprof != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(c.pprof, nil)) }()
	}
	workers := c.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !c.useCache && c.cacheDir == "" && !open {
		return nil, workers
	}
	return must(cache.Open(c.cacheDir)), workers
}

// newManifest starts the run record both subcommands write: the resolved
// worker count, the seeds, the wall time, what ran (config), what it gave
// (summary) and, when a cache was open, its counters.
func newManifest(workers int, seeds []uint64, wall time.Duration, config, summary map[string]any, snap *cache.Snapshot) obs.Manifest {
	man := obs.NewManifest()
	man.Workers, man.Seeds, man.WallSeconds = workers, seeds, wall.Seconds()
	man.Config, man.Summary, man.Cache = config, summary, snap
	return man
}

// must returns v, or ends the command with err.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
