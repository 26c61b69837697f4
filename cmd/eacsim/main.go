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

// parseCommon declares the common flags on fs and parses args into it. A
// word left after the flags is a typo (a subcommand written after run's
// flags, say), never input to ignore.
func parseCommon(fs *flag.FlagSet, args []string) *common {
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
	fs.Parse(args) // flag.ExitOnError: a bad flag has already exited
	if fs.NArg() > 0 {
		log.Fatalf("unexpected argument %q (flags go after the subcommand: eacsim [run|figure] -flag ...)", fs.Arg(0))
	}
	return c
}

// A reader is what one invocation reads: "" for a flag it reads, else why
// setting the flag is an error. Each subcommand builds one from what it
// resolved; it alone decides which set flag ends the command (check), which
// knob run's manifest records and which header line run prints.
type reader func(flag string) (why string)

// reads reports whether the invocation reads flag.
func (r reader) reads(flag string) bool { return r(flag) == "" }

// check ends the command if fs was given a flag the invocation does not
// read: a flag that does nothing is an error.
func (r reader) check(fs *flag.FlagSet) {
	fs.Visit(func(f *flag.Flag) {
		if why := r(f.Name); why != "" {
			log.Fatalf("-%s %s", f.Name, why)
		}
	})
}

// A gate lets an invocation read flags, space-separated, only while open;
// why is the error for one of them set while it is shut.
type gate struct {
	open       bool
	why, flags string
}

// gates is the reader that rejects a flag the first shut gate names.
func gates(gs ...gate) reader {
	return func(flag string) string {
		for _, g := range gs {
			if !g.open && slices.Contains(strings.Fields(g.flags), flag) {
				return g.why
			}
		}
		return ""
	}
}

// needsObs is why an obs flag is an error without -obs.
const needsObs = "needs -obs DIR: no artifacts are written without it"

// obsConfig is the observability config the flags ask for, with artifacts
// named by label (empty: by sweep point) and perfetto from run's
// -perfetto; without -obs it is disabled.
func (c *common) obsConfig(label string, perfetto bool) (off obs.Config) {
	if c.obsDir == "" {
		return off
	}
	return obs.Config{Enabled: true, Dir: c.obsDir, Label: label,
		MetricsInterval: sim.Seconds(c.mInterval), TraceCapacity: c.traceCap, Perfetto: perfetto}
}

// start serves pprof, checks -workers and opens the result cache when
// -cache or -cache-dir asks for it. It returns the store (nil when none is
// open) and the worker count, 0 resolved to one per core.
func (c *common) start() (*cache.Store, int) {
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
	if !c.useCache && c.cacheDir == "" {
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

// fatal ends the command with err, if there is one.
func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// must returns v, or ends the command with err.
func must[T any](v T, err error) T {
	fatal(err)
	return v
}
