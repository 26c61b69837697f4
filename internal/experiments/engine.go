package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"eac/internal/scenario"
)

// Experiment is one figure or table of the evaluation, declared as the
// points of its sweep. Run is the one body that turns points into a Table.
type Experiment struct {
	ID     string // e.g. "figure2", "table5"
	Title  string
	Header []string
	Notes  string
	points func(Options) []Point
}

// Point is one sweep point: a label plus either a scenario run or a
// direct computation.
type Point struct {
	Label string
	// Cfg is run once per seed; Row renders the seed-mean metrics as a
	// table row (a nil row emits nothing). Row runs on the coordinating
	// goroutine, one point at a time, in point order — a point may hand
	// state to the points after it.
	Cfg scenario.Config
	Row func(scenario.Metrics) []string
	// Solve, if set, replaces the scenario run: one task whose result is
	// the point's row (Figure 1's fluid solves, Figure 11's TCP-share
	// runs). Options.Cache and Options.Obs do not apply to it.
	Solve func() ([]string, error)
}

// Run executes every point and returns the table. Parallelism is at task
// granularity — one task per seed of a scenario point, one per Solve — on
// the scenario.RunOrdered pool, so with P scenario points and S seeds the
// pool sees P*S independent simulator runs. Each run owns its Sim and RNG
// streams and results are consumed in task order, so rows and progress
// lines are identical for every Options.Workers.
func (ex Experiment) Run(o Options) (Table, error) {
	t := Table{ID: ex.ID, Title: ex.Title, Header: ex.Header, Notes: ex.Notes}
	seeds, err := o.seeds()
	if err != nil {
		return t, err
	}
	pts := ex.points(o)
	type task struct{ pt, seed int }
	var tasks []task
	for i, p := range pts {
		if p.Solve != nil {
			tasks = append(tasks, task{i, 0})
			continue
		}
		for s := range seeds {
			tasks = append(tasks, task{i, s})
		}
	}
	type result struct {
		m   scenario.Metrics
		row []string
	}
	// One workspace per worker: the runs a goroutine claims reuse its
	// simulator state (and worker count cannot affect results — the
	// workspace reuse path is byte-identical to fresh construction).
	workspaces := make([]*scenario.Workspace, o.workers())
	var runs []scenario.Metrics
	start := time.Now()
	err = scenario.RunOrdered(o.workers(), len(tasks),
		func(worker, i int) (result, error) {
			var r result
			var err error
			p := pts[tasks[i].pt]
			if p.Solve != nil {
				r.row, err = p.Solve()
			} else {
				if workspaces[worker] == nil {
					workspaces[worker] = scenario.NewWorkspace()
				}
				c := o.override(p)
				c.Seed = seeds[tasks[i].seed]
				r.m, err = workspaces[worker].Run(c)
			}
			if err != nil {
				return r, fmt.Errorf("%s: %w", p.Label, err)
			}
			return r, nil
		},
		func(i int, r result) error {
			if o.ETA != nil {
				o.ETA(i+1, len(tasks), time.Since(start))
			}
			p := pts[tasks[i].pt]
			if p.Solve == nil {
				if runs = append(runs, r.m); len(runs) < len(seeds) {
					return nil
				}
				mean := scenario.Aggregate(runs).Mean
				runs = runs[:0]
				o.logf("%-40s %s", p.Label, mean.Summary())
				r.row = p.Row(mean)
			} else {
				o.logf("%-40s %s", p.Label, strings.Join(r.row, " "))
			}
			if r.row != nil {
				t.Rows = append(t.Rows, r.row)
			}
			return nil
		})
	return t, err
}

// override applies the run-wide Options to one scenario point: the
// result cache and per-run observability, both output-neutral — a figure
// runs the configurations it declares.
func (o Options) override(p Point) scenario.Config {
	c := p.Cfg
	c.Cache = o.Cache
	if o.Obs.Active() {
		// Every run gets its own collector; artifacts are named by point
		// label + seed.
		c.Obs = o.Obs
		c.Obs.Label = joinLabel(o.Obs.Label, fileLabel(p.Label))
	}
	return c
}

// workers resolves the effective worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fileLabel sanitizes a sweep-point label into a filename-safe stem.
func fileLabel(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// joinLabel prefixes a point label with the sweep-wide label, if any.
func joinLabel(prefix, label string) string {
	if prefix == "" {
		return label
	}
	return prefix + "-" + label
}
