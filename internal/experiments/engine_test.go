package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// TestWorkersResolution checks the Options.Workers plumbing.
func TestWorkersResolution(t *testing.T) {
	var o Options
	if o.workers() < 1 {
		t.Fatalf("default workers = %d", o.workers())
	}
	o.Workers = 3
	if o.workers() != 3 {
		t.Fatal("explicit workers ignored")
	}
}

// tinyOpts returns quick-mode options scaled down to seconds of CPU, for
// end-to-end engine tests that run real simulations.
func tinyOpts() Options {
	o := Quick()
	o.Duration = 80 * sim.Second
	o.Warmup = 20 * sim.Second
	return o
}

// declared returns an experiment whose sweep is exactly pts.
func declared(pts ...Point) Experiment {
	return Experiment{ID: "test", Header: []string{"row"}, points: func(Options) []Point { return pts }}
}

// runLogged runs ex under o, returning the table and the progress lines.
func runLogged(t *testing.T, ex Experiment, o Options) (Table, []string) {
	t.Helper()
	var lines []string
	o.Progress = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	tbl, err := ex.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, lines
}

func lookup(t *testing.T, id string) Experiment {
	t.Helper()
	ex, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestParallelDeterminism is the engine's acceptance test: one
// representative figure point run with 1 and 4 workers yields
// bitwise-identical Metrics, and whole experiments yield identical Table
// rows and identical progress lines — a scenario sweep (table3), Solve
// points (figure1) and rows that pair two points (figure2_hybrid).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := tinyOpts()

	// One representative Figure 2 point, 3 seeds: aggregate metrics must
	// be bitwise equal (reflect.DeepEqual compares float bits via ==;
	// identical bits is what full determinism produces).
	cfg := eacCfg(o.basic(3.5), admission.DropInBand, admission.SlowStart, 0.01)
	seeds := scenario.DefaultSeeds(3)
	seq, _, err := scenario.RunSeedsObserved(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := scenario.RunSeedsObserved(cfg, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("figure2 point diverged across worker counts:\nseq %+v\npar %+v", seq.Mean, par.Mean)
	}

	// Whole experiments: identical Table (rows, notes, everything) and
	// byte-identical progress lines for Workers=1 vs Workers=4.
	for _, id := range []string{"table3", "figure1", "figure2_hybrid"} {
		o := tinyOpts()
		o.Sparse = true
		o.Workers = 1
		tbl1, log1 := runLogged(t, lookup(t, id), o)
		o.Workers = 4
		tbl4, log4 := runLogged(t, lookup(t, id), o)
		if !reflect.DeepEqual(tbl1, tbl4) {
			t.Fatalf("%s diverged across worker counts:\n%s\n%s", id, tbl1, tbl4)
		}
		if !reflect.DeepEqual(log1, log4) {
			t.Fatalf("%s progress logs diverged:\n%q\n%q", id, log1, log4)
		}
		if len(tbl1.Rows) == 0 || len(log1) < len(tbl1.Rows) {
			t.Fatalf("%s: %d rows, %d progress lines", id, len(tbl1.Rows), len(log1))
		}
	}
}

// TestRowsInPointOrder: rows and progress lines follow the declared points,
// not the order their tasks finish in — here the first points take the
// longest.
func TestRowsInPointOrder(t *testing.T) {
	const n = 8
	var pts []Point
	for i := range n {
		pts = append(pts, Point{Label: strconv.Itoa(i), Solve: func() ([]string, error) {
			time.Sleep(time.Duration(n-i) * 5 * time.Millisecond)
			return []string{strconv.Itoa(i)}, nil
		}})
	}
	o := tinyOpts()
	o.Workers = 4
	tbl, lines := runLogged(t, declared(pts...), o)
	for i := range n {
		if len(tbl.Rows) != n || tbl.Rows[i][0] != strconv.Itoa(i) {
			t.Fatalf("rows %v, want points 0..%d in order", tbl.Rows, n-1)
		}
		if want := fmt.Sprintf("%-40d %d", i, i); lines[i] != want {
			t.Fatalf("progress line %d = %q, want %q", i, lines[i], want)
		}
	}
}

// basicPoint is a Figure 2 point at eps whose row is nil.
func basicPoint(o Options, label string, eps float64) Point {
	return Point{Label: label, Cfg: eacCfg(o.basic(3.5), admission.DropInBand, admission.SlowStart, eps),
		Row: func(scenario.Metrics) []string { return nil }}
}
