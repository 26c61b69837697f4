// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4 plus the Section 2.2.3 fluid model). Each
// experiment is a declaration — its header and the points of its sweep —
// and its Table's rows correspond to the points of the published figure
// or the cells of the published table; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Experiments run in one of two modes. Paper mode uses the publication's
// parameters verbatim: 14000 simulated seconds per run, the first 2000
// discarded, 300 s mean lifetimes, and 7-seed averaging — hours of CPU for
// the full suite. Quick mode keeps every offered load identical but scales
// flow dynamics tenfold (30 s lifetimes, one tenth the inter-arrival
// time), shortens runs, seeds the stationary flow population, and averages
// fewer seeds, reproducing the same qualitative frontiers in minutes.
//
// Execution is parallel: one engine (Experiment.Run) fans every
// experiment's independent point×seed runs out over a worker pool,
// reassembling results in point order so the output is byte-identical to
// a sequential run. See Options.Workers.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Options selects the execution scale.
type Options struct {
	// Quick selects the scaled-down mode described in the package
	// comment.
	Quick bool
	// Seeds overrides the number of seeds (0 = mode default: 1 quick,
	// 7 paper).
	Seeds int
	// Duration and Warmup override the run length (0 = mode default).
	Duration, Warmup sim.Time
	// Workers caps the sweep engine's worker pool: independent point×seed
	// simulator runs execute on up to this many goroutines (0 = one per
	// runtime.GOMAXPROCS(0)). Results are deterministic — tables, CSVs,
	// and Progress lines are byte-identical for every worker count; only
	// wall-clock time changes.
	Workers int
	// Sparse thins the sweep grids (two epsilon values per band, one MBAC
	// target) so a full regeneration of every experiment stays cheap. The
	// conformance harness uses it for golden-figure regression, where grid
	// coverage matters less than exercising every experiment's code path.
	Sparse bool
	// Progress, if set, receives one line per completed sweep point, in
	// point order regardless of Workers: the label and the point's
	// seed-mean Metrics.Summary() or its solved row, as "%-40s %s".
	Progress func(format string, args ...any)
	// ETA, if set, receives sweep progress (completed tasks, total tasks,
	// elapsed wall-clock) after each task — a seed of a scenario point, or
	// a Solve — on the coordinating goroutine. It is deliberately separate
	// from Progress: ETA output carries wall-clock times, which vary run to
	// run, while Progress lines are part of the byte-identical-output
	// guarantee.
	ETA func(done, total int, elapsed time.Duration)
	// Cache, if non-nil, is the content-addressed result store consulted
	// for every sweep run (scenario.Config.Cache): runs whose resolved
	// config + seed fingerprint is stored are served without simulating,
	// and computed runs are stored. Tables and CSVs stay byte-identical
	// with the cache cold, warm, or absent. Ignored for runs that have
	// observability enabled (artifacts cannot come from a cache).
	Cache *cache.Store
	// Obs, if enabled, attaches a per-run observability collector
	// (internal/obs) to every sweep run: time-series and trace artifacts
	// are written under Obs.Dir, named by sweep-point label and seed.
	Obs obs.Config
}

// Quick returns quick-mode options.
func Quick() Options { return Options{Quick: true} }

// Paper returns publication-scale options.
func Paper() Options { return Options{} }

// Conformance returns the reduced-but-deterministic options the golden
// regression suite (internal/conformance) runs every experiment with:
// quick-mode dynamics, short runs, one seed, sparse sweep grids. The
// absolute numbers at this scale are noisy; what matters is that they are
// a pure function of the experiment code, so any behavioural drift in the
// simulator, the admission designs, or the sweep engine changes them.
func Conformance() Options {
	return Options{
		Quick:    true,
		Sparse:   true,
		Seeds:    1,
		Duration: 60 * sim.Second,
		Warmup:   15 * sim.Second,
	}
}

// SeedValues returns the seed list these options resolve to; a Seeds
// outside 0..scenario.MaxSeeds is an error.
func (o Options) SeedValues() ([]uint64, error) {
	n := o.Seeds
	switch {
	case n < 0 || n > scenario.MaxSeeds:
		return nil, fmt.Errorf("experiments: Options.Seeds = %d, want 0..%d (0 = mode default)", n, scenario.MaxSeeds)
	case n == 0 && o.Quick:
		n = 1
	case n == 0:
		n = 7
	}
	return scenario.DefaultSeeds(n), nil
}

// RunDuration returns the resolved per-run simulated duration.
func (o Options) RunDuration() sim.Time {
	if o.Duration != 0 {
		return o.Duration
	}
	if o.Quick {
		return 800 * sim.Second
	}
	return 14000 * sim.Second
}

// RunWarmup returns the resolved per-run warmup.
func (o Options) RunWarmup() sim.Time {
	if o.Warmup != 0 {
		return o.Warmup
	}
	if o.Quick {
		return 150 * sim.Second
	}
	return 2000 * sim.Second
}

// tau converts a paper inter-arrival time to the mode's value.
func (o Options) tau(paperTau float64) float64 {
	if o.Quick {
		return paperTau / 10
	}
	return paperTau
}

func (o Options) lifetime() float64 {
	if o.Quick {
		return 30
	}
	return 300
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// base returns a scenario config with this mode's scale applied.
func (o Options) base(paperTau float64) scenario.Config {
	cfg := scenario.Config{
		InterArrival: o.tau(paperTau),
		LifetimeSec:  o.lifetime(),
		Duration:     o.RunDuration(),
		Warmup:       o.RunWarmup(),
	}
	if o.Quick {
		cfg.PrepopulateUtil = 0.75
	}
	return cfg
}

// Table is one regenerated figure or table.
type Table struct {
	ID     string // e.g. "figure2", "table5"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// The paper's epsilon sweeps (Section 3.2): in-band designs use
// 0..0.05, out-of-band designs 0..0.20.
var (
	inBandEps     = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	outBandEps    = []float64{0, 0.05, 0.10, 0.15, 0.20}
	mbacTargets   = []float64{0.85, 0.90, 0.95, 1.00, 1.05}
	quickInEps    = []float64{0, 0.01, 0.03, 0.05}
	quickOutEps   = []float64{0, 0.05, 0.10, 0.20}
	quickTargets  = []float64{0.90, 1.00}
	sparseInEps   = []float64{0, 0.05}
	sparseOutEps  = []float64{0, 0.20}
	sparseTargets = []float64{0.95}
)

func (o Options) epsFor(d admission.Design) []float64 {
	if d.Band == admission.OutOfBand {
		if o.Sparse {
			return sparseOutEps
		}
		if o.Quick {
			return quickOutEps
		}
		return outBandEps
	}
	if o.Sparse {
		return sparseInEps
	}
	if o.Quick {
		return quickInEps
	}
	return inBandEps
}

func (o Options) targets() []float64 {
	if o.Sparse {
		return sparseTargets
	}
	if o.Quick {
		return quickTargets
	}
	return mbacTargets
}

// fixedEps returns the Figure 9 thresholds: 0.01 in-band, 0.05
// out-of-band.
func fixedEps(d admission.Design) float64 {
	if d.Band == admission.OutOfBand {
		return 0.05
	}
	return 0.01
}

func f(v float64) string    { return fmt.Sprintf("%.4f", v) }
func e(v float64) string    { return fmt.Sprintf("%.3e", v) }
func f2(v float64) string   { return fmt.Sprintf("%.3f", v) }
func knob(v float64) string { return fmt.Sprintf("%.2f", v) }

// knobRow renders a loss-load operating point: the leading cells that name
// it, then utilization, loss and blocking.
func knobRow(lead ...string) func(scenario.Metrics) []string {
	return func(m scenario.Metrics) []string {
		return append(lead[:len(lead):len(lead)], f(m.Utilization), e(m.DataLossProb), f2(m.BlockingProb))
	}
}

// eacCfg builds an EAC scenario from a base config.
func eacCfg(base scenario.Config, d admission.Design, kind admission.ProberKind, eps float64) scenario.Config {
	cfg := base
	cfg.Method = scenario.EAC
	cfg.AC = admission.Config{Design: d, Kind: kind, Eps: eps}
	return cfg
}

// mbacCfg builds a Measured Sum scenario from a base config.
func mbacCfg(base scenario.Config, target float64) scenario.Config {
	cfg := base
	cfg.Method = scenario.MBAC
	cfg.MS.Target = target
	return cfg
}

// classes1 builds a single-class spec.
func classes1(p trafgen.Preset) []scenario.ClassSpec {
	return []scenario.ClassSpec{{Name: p.Name, Preset: p, Weight: 1, Eps: -1}}
}
