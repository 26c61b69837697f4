package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eac/internal/admission"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// TestObsDisabledByteIdentical is the observability layer's acceptance
// test: attaching a collector that is constructed but disabled changes
// nothing — a representative Figure 2 point keeps bitwise-identical
// aggregate Metrics, and a whole experiment (Table 3) keeps identical
// rows and byte-identical progress lines, extending the
// TestParallelDeterminism guarantee to the instrumented build.
func TestObsDisabledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := tinyOpts()

	// Figure 2 point: zero Obs config vs a constructed-but-disabled
	// collector in every run.
	cfg := eacCfg(o.basic(3.5), admission.DropInBand, admission.SlowStart, 0.01)
	seeds := scenario.DefaultSeeds(3)
	plain, _, err := scenario.RunSeedsObserved(cfg, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.Config{MetricsInterval: sim.Second, TraceCapacity: 1 << 10}
	if !cfg.Obs.Active() || cfg.Obs.Enabled {
		t.Fatal("test config must construct a disabled collector")
	}
	observed, _, err := scenario.RunSeedsObserved(cfg, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("figure2 point diverged with a disabled collector:\nplain %+v\nobs   %+v",
			plain.Mean, observed.Mean)
	}

	// Whole experiment: Options.Obs threading a disabled collector into
	// every sweep run must leave the Table and progress lines untouched.
	run := func(oc obs.Config) (Table, []string) {
		o := tinyOpts()
		o.Workers = 4
		o.Obs = oc
		return runLogged(t, lookup(t, "table3"), o)
	}
	tblPlain, logPlain := run(obs.Config{})
	tblObs, logObs := run(obs.Config{MetricsInterval: sim.Second, TraceCapacity: 1 << 10})
	if !reflect.DeepEqual(tblPlain, tblObs) {
		t.Fatalf("table3 diverged with a disabled collector:\n%s\n%s", tblPlain, tblObs)
	}
	if !reflect.DeepEqual(logPlain, logObs) {
		t.Fatalf("progress logs diverged:\n%q\n%q", logPlain, logObs)
	}
}

// TestObsEnabledSweepWritesArtifacts checks the Options.Obs plumbing end
// to end: an enabled collector makes every point×seed run write its own
// label+seed-named artifacts under Obs.Dir.
func TestObsEnabledSweepWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	o := tinyOpts()
	o.Seeds = 2
	o.Obs = obs.Config{Enabled: true, Dir: dir, MetricsInterval: sim.Second}

	if _, err := declared(basicPoint(o, "pt eps=0.01", 0.01)).Run(o); err != nil {
		t.Fatal(err)
	}
	seeds, err := o.SeedValues()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		p := filepath.Join(dir, fmt.Sprintf("pt-eps-0.01-s%d-series.csv", seed))
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			ents, _ := os.ReadDir(dir)
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("missing artifact %s (err %v); dir has %v", p, err, names)
		}
	}
}

// TestETAReporting checks that the ETA callback fires once per completed
// task — each seed of a scenario point and each Solve — with monotonically
// complete counts, independent of the Progress stream.
func TestETAReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := tinyOpts()
	o.Seeds = 2
	o.Workers = 2
	type tick struct{ done, total int }
	var ticks []tick
	o.ETA = func(done, total int, _ time.Duration) {
		ticks = append(ticks, tick{done, total})
	}
	solve := Point{Label: "c", Solve: func() ([]string, error) { return []string{"c"}, nil }}
	ex := declared(basicPoint(o, "a", 0.01), solve, basicPoint(o, "b", 0.05))
	if _, err := ex.Run(o); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 5 {
		t.Fatalf("ETA ticks = %d, want 5 (2 scenario points x 2 seeds + 1 solve)", len(ticks))
	}
	for i, tk := range ticks {
		if tk.done != i+1 || tk.total != 5 {
			t.Fatalf("tick %d = %+v", i, tk)
		}
	}
}

func TestFileLabel(t *testing.T) {
	for in, want := range map[string]string{
		"drop/in eps=0.01": "drop-in-eps-0.01",
		"Simple":           "Simple",
		"a b/c":            "a-b-c",
	} {
		if got := fileLabel(in); got != want {
			t.Fatalf("fileLabel(%q) = %q, want %q", in, got, want)
		}
	}
	if got := joinLabel("", "x"); got != "x" {
		t.Fatalf("joinLabel empty prefix = %q", got)
	}
	if got := joinLabel("sweep", "x"); got != "sweep-x" {
		t.Fatalf("joinLabel = %q", got)
	}
}
